package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// minTail sets the percentile rule every timing follows: report the median
// and the highest percentile that still has at least minTail samples beyond
// it, so p99 needs 1,000 samples. Below that a lower percentile is
// reported and flagged rather than a p99 computed from a handful of points.
const minTail = 10

// tailPercentiles are the candidates, highest first.
var tailPercentiles = []float64{99, 95, 90, 50}

// tailPercentile returns the highest candidate percentile with at least
// minTail of n samples beyond it, or 0 when even the median lacks them.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		rank := (int(p)*n + 99) / 100 // nearest rank, in integers to avoid rounding
		if n-rank >= minTail {
			return p
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timing summarizes one sample set under the tail rule.
type timing struct {
	N     int
	P50   float64
	Tail  float64 // value at TailP
	TailP float64
	Max   float64
}

// summarize sorts samples in place and applies the tail rule.
func summarize(samples []float64) timing {
	sort.Float64s(samples)
	t := timing{N: len(samples), TailP: tailPercentile(len(samples))}
	if t.N == 0 {
		return t
	}
	t.P50 = quantile(samples, 0.5)
	t.Max = samples[t.N-1]
	if t.TailP > 0 {
		t.Tail = quantile(samples, t.TailP/100)
	}
	return t
}

// tailNote flags a timing whose tail is reported at less than p99.
func (t timing) tailNote(name string) string {
	if t.TailP >= 99 {
		return ""
	}
	return fmt.Sprintf("%s: only %d samples, tail reported at p%g instead of p99", name, t.N, t.TailP)
}

// curvePoint is one observation of a monotone completion counter: at time
// At (ns since the timed phase began) the counter read Done.
type curvePoint struct {
	At   int64
	Done int64
}

// matchCurve turns a completion curve into per-record latencies. Records
// complete in FIFO order, so record i (0-based) is done at the first
// observation whose counter covers i+1. due[i] is record i's scheduled
// time; the latency is measured from it, not from when the record was
// actually sent, so a generator stall is charged to the records it delayed.
// Records the curve never covers are returned as unmatched.
func matchCurve(due []int64, curve []curvePoint) (lat []int64, unmatched int) {
	lat = make([]int64, 0, len(due))
	j := 0
	for i, d := range due {
		for j < len(curve) && curve[j].Done < int64(i+1) {
			j++
		}
		if j == len(curve) {
			return lat, len(due) - i
		}
		lat = append(lat, curve[j].At-d)
	}
	return lat, 0
}

// tally counts operations attempted and failed, with the reason for each
// failure kind so a failing run says what went wrong.
type tally struct {
	attempted, failed int64
	reasons           map[string]int64
}

func (t *tally) ok(n int64) { t.attempted += n }

func (t *tally) fail(reason string, n int64) {
	if n <= 0 {
		return
	}
	t.attempted += n
	t.failed += n
	if t.reasons == nil {
		t.reasons = make(map[string]int64)
	}
	t.reasons[reason] += n
}

// check counts one operation that succeeded when good is true.
func (t *tally) check(good bool, reason string) {
	if good {
		t.ok(1)
	} else {
		t.fail(reason, 1)
	}
}

// frac is failed ÷ attempted.
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// staleVersion is the failure of a replaced key that holds an earlier
// version than the last one sent.
const staleVersion = "replaced key holds an earlier version"

// checkStored compares the records a dataset holds against the records the
// run expects it to hold, both as id → content digest. Every expected record
// is one attempted operation; a missing or different one fails. A stored id
// nobody emitted fails too, as a phantom. versions holds every version sent
// for a replaced key; a key that holds an earlier one than its last fails as
// such, which is what records applied out of order leave behind.
func checkStored(want, got map[string]uint64, versions map[string][]uint64, t *tally) {
	for id, w := range want {
		g, ok := got[id]
		switch {
		case !ok:
			t.fail("record missing", 1)
		case g != w && slices.Contains(versions[id], g):
			t.fail(staleVersion, 1)
		case g != w:
			t.fail("record persisted wrong", 1)
		default:
			t.ok(1)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.fail("phantom record", 1)
		}
	}
}

// checkCount compares an observed count with the expected one: the matched
// part counts as succeeded and the difference, either way, as failed.
func checkCount(reason string, want, got int64, t *tally) {
	t.ok(min(want, got))
	if want > got {
		t.fail(reason, want-got)
	} else {
		t.fail(reason, got-want)
	}
}

// windows is how many equal slices of a timed phase each end-to-end figure
// is computed over; the reported value is the median over the slices, so a
// single flush, merge or GC burst moves one slice rather than the result.
const windows = 10

// windowed groups vals by their sample times at (ns since the phase began)
// into windows equal slices of [0, span) and returns the median over the
// non-empty slices of f applied to each slice's values.
func windowed(at []int64, vals []float64, span int64, f func([]float64) float64) float64 {
	return median(perWindow(at, vals, span, f))
}

// perWindow returns f of each non-empty window, in time order.
func perWindow(at []int64, vals []float64, span int64, f func([]float64) float64) []float64 {
	if span <= 0 {
		span = 1
	}
	groups := make([][]float64, windows)
	for i, t := range at {
		w := int(t * windows / span)
		w = max(0, min(w, windows-1))
		groups[w] = append(groups[w], vals[i])
	}
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, f(g))
		}
	}
	return per
}

func peak(g []float64) float64 {
	m := g[0]
	for _, v := range g {
		m = max(m, v)
	}
	return m
}

func sum(g []float64) float64 {
	s := 0.0
	for _, v := range g {
		s += v
	}
	return s
}

// curveIncrements turns a completion curve into (time, records completed
// since the previous observation) samples.
func curveIncrements(curve []curvePoint) (at []int64, n []float64) {
	prev := int64(0)
	for _, p := range curve {
		at = append(at, p.At)
		n = append(n, float64(p.Done-prev))
		prev = p.Done
	}
	return at, n
}
