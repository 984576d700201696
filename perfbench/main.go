// Command perfbench is the repository benchmark: it drives asterixfeeds
// through its exported Go API with one of four workloads, checks that the
// stored data is exactly what was sent, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as one JSON line at the end.
//
//	go run . --workload feed_steady --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and why each was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// A run boots and sets up its system several times and reports the
// median as setup_s: at least minSetups times, and more, up to maxSetups,
// until the setups add up to setupBudget, so a set-up of a millisecond is
// measured as often as a slow one is worth. A pause between set-ups spreads
// them over about two seconds, so the median does not follow the host's
// load during one fraction of a second. The last set-up serves the timed
// phase.
const (
	minSetups   = 3
	maxSetups   = 81
	setupBudget = time.Second
	setupPause  = 20 * time.Millisecond
	runDeadline = 170 * time.Second
)

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// its order, with units. A run reports exactly one of the two sets.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"write_p50_ms", "ms"},
	{"cpu_us_per_rec", "us"},
	{"heap_live_mb", "MB"},
}

type metricDef struct{ name, unit string }

func main() {
	workload := flag.String("workload", "", "feed_steady, feed_saturate, upsert_lookup or insert_stmt")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	// A run must end within 180 s; a hang anywhere ends it here instead,
	// without a result line.
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v\n", runDeadline)
		os.Exit(3)
	})
	b := &bench{workload: *workload, seed: *seed, seconds: *seconds,
		root: filepath.Join(".bench_build", "perfbench-data", fmt.Sprint(os.Getpid()))}
	res, err := run(b, w, *trace == 1)
	_ = os.RemoveAll(b.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	out, _ := json.Marshal(r)
	fmt.Fprintln(f, string(out))
}

func provenance() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("commit=%s go=%s nproc=%d gomaxprocs=%d", commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func run(b *bench, w *workload, traced bool) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	res.printf("perfbench workload=%s seed=%d seconds=%d trace=%v %s", b.workload, b.seed, b.seconds, traced, provenance())
	res.printf("shape: %s", b.describe())
	w.prepare(b)
	o := newOutcome(b)
	// What is live after a collection now is the harness alone: the inputs
	// and the timed phase's buffers. Collecting also keeps generation
	// garbage from being collected during the set-ups.
	runtime.GC()
	o.heapBaseMB = float64(readGo().heapLive) / (1 << 20)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setups []float64
	var connects []float64
	untracedP50 := 0.0
	var sys *system
	// A traced run first runs an untraced twin of its timed phase on its
	// own setup, for trace.overhead_frac.
	twin := traced
	spent := time.Duration(0)
	for k := 0; ; k++ {
		kept := 1
		if twin {
			kept = 2
		}
		final := k >= minSetups-kept && (spent >= setupBudget || k >= maxSetups-kept)
		var str *tracer
		if final && !twin {
			str = tr
		}
		s, d, err := setup(b, w, k, str)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		spent += d
		setups = append(setups, d.Seconds())
		if s.conn != nil {
			connects = append(connects, float64(s.connectDur.Nanoseconds())/1e6)
		}
		if !final {
			s.close()
			// Let the closed instance's goroutines wind down, so every
			// set-up starts from the same idle process rather than
			// racing its predecessor's teardown.
			time.Sleep(setupPause)
			continue
		}
		if twin {
			u := newOutcome(b)
			err = w.run(b, s, nil, u)
			s.close()
			if err != nil {
				return nil, err
			}
			untracedP50 = u.writeP50()
			twin = false
			continue
		}
		sys = s
		break
	}
	defer sys.close()
	if err := w.run(b, sys, tr, o); err != nil {
		return nil, err
	}
	e2e := endToEndValues(o, median(setups))
	res.printf("failed_frac %.6f (%d of %d operations)", o.t.frac(), o.t.failed, o.t.attempted)
	reasons := make([]string, 0, len(o.t.reasons))
	for k, n := range o.t.reasons {
		reasons = append(reasons, fmt.Sprintf("%s: %d", k, n))
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		res.printf("FAILED %s", r)
	}
	res.Correct = o.t.failed == 0
	res.Attempted, res.Failed = o.t.attempted, o.t.failed

	if !traced {
		for _, d := range endToEnd {
			v, ok := e2e[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("metric %s not measured", d.name)
			}
			res.Metrics[d.name] = metric{v, d.unit}
		}
		for _, line := range e2eLines(o, e2e, setups) {
			res.printf("%s", line)
		}
		return res, nil
	}

	layer, err := perLayerValues(b, sys, w, o, tr, connects)
	if err != nil {
		return nil, err
	}
	layer["trace.overhead_frac"] = e2e["write_p50_ms"]/untracedP50 - 1
	for _, d := range perLayer {
		v, ok := layer[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
		res.printf("layer %-40s %14.4f %s", d.name, v, d.unit)
	}
	var sb strings.Builder
	tr.printSummary(&sb)
	res.lines = append(res.lines, strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")...)
	path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-trace-%s-%d.jsonl", b.workload, b.seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	res.printf("trace: spans written to %s", path)
	return res, nil
}

// setup boots system k and runs the workload's setup, timing everything
// except input generation.
func setup(b *bench, w *workload, k int, tr *tracer) (*system, time.Duration, error) {
	start := time.Now()
	sp := tr.begin("setup", -1, int64(k))
	s, err := boot(filepath.Join(b.root, fmt.Sprint(k)), w.nodes)
	if err != nil {
		return nil, 0, err
	}
	excluded, err := w.setup(b, s, tr)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	tr.end(sp)
	return s, time.Since(start) - excluded, nil
}

func (o *outcome) writeP50() float64 {
	if o == nil || len(o.writeLat) == 0 {
		return 0
	}
	return windowed(o.writeAt, o.writeLat, o.span, median)
}

// writeRate is the write throughput: records persisted per second of each
// window (feeds), or records per second of statement time (insert_stmt).
func (o *outcome) writeRate() float64 {
	if o.conn == nil {
		return windowed(o.rateAt, o.rateVal, o.span, func(g []float64) float64 {
			return float64(stmtBatch*len(g)) / sum(g)
		})
	}
	window := float64(o.span) / windows / 1e9
	return windowed(o.rateAt, o.rateVal, o.span, func(g []float64) float64 { return sum(g) / window })
}

// harnessCPU is the CPU time the benchmark's own goroutines spent during
// the timed phase: the sampler, and the load loops outside their calls into
// the system.
func (o *outcome) harnessCPU() time.Duration {
	d := o.smp.cpu
	if o.w != nil {
		d += o.w.harness
	}
	if o.read != nil {
		d += o.read.harness
	}
	return d
}

func endToEndValues(o *outcome, setupS float64) map[string]float64 {
	w := summarize(append([]float64(nil), o.writeLat...))
	m := map[string]float64{
		"setup_s":        setupS,
		"write_p50_ms":   o.writeP50(),
		"write_p99_ms":   w.Tail,
		"write_rps":      o.writeRate(),
		"cpu_us_per_rec": float64((o.cpuAfter - o.cpuBefore - o.harnessCPU()).Nanoseconds()) / 1e3 / float64(max(o.records, 1)),
		"heap_live_mb":   o.heapEndMB - o.heapBaseMB,
		"heap_peak_mb":   windowed(o.smp.heapAt, o.smp.heapMB, o.span, peak) - o.heapBaseMB,
	}
	if r := o.read; r != nil {
		m["read_p50_us"] = windowed(r.at, r.lat, r.span, median)
		m["read_p99_us"] = summarize(append([]float64(nil), r.lat...)).Tail
	}
	return m
}

// e2eLines prints every end-to-end figure with its sample count and the
// tail under the percentile rule.
func e2eLines(o *outcome, e2e map[string]float64, setups []float64) []string {
	w := summarize(append([]float64(nil), o.writeLat...))
	phaseCPU := o.cpuAfter - o.cpuBefore
	out := []string{
		fmt.Sprintf("metric setup_s %.6f s (median of %d setups; fastest %.6f s)", e2e["setup_s"], len(setups), slices.Min(setups)),
		fmt.Sprintf("metric write_p50_ms %.4f ms (window median; all n=%d: p50 %.4f, p%g %.4f, max %.4f ms)", e2e["write_p50_ms"], w.N, w.P50, w.TailP, w.Tail, w.Max),
		fmt.Sprintf("metric cpu_us_per_rec %.3f us (process CPU %.3f s less the harness's %.3f s, for %d records)",
			e2e["cpu_us_per_rec"], phaseCPU.Seconds(), o.harnessCPU().Seconds(), o.records),
		fmt.Sprintf("metric heap_live_mb %.2f MB (live heap at the end, %.2f MB, less the harness's %.2f MB)",
			e2e["heap_live_mb"], o.heapEndMB, o.heapBaseMB),
		fmt.Sprintf("write_rps %.1f 1/s (window median; all: %d records in %.3f s)", e2e["write_rps"], o.records, o.writeSecs),
		fmt.Sprintf("windows write_p50_ms %.3f", perWindow(o.writeAt, o.writeLat, o.span, median)),
		fmt.Sprintf("heap_peak_mb %.2f MB (per-layer; window median of the sampled peaks less the harness's share)", e2e["heap_peak_mb"]),
		fmt.Sprintf("windows heap_peak_mb %.2f (before the harness's share is taken off; %d GC cycles)",
			perWindow(o.smp.heapAt, o.smp.heapMB, o.span, peak), o.goAfter.gcCycles-o.goBefore.gcCycles),
	}
	notes := []string{w.tailNote("write latency")}
	if r := o.read; r != nil {
		rt := summarize(append([]float64(nil), r.lat...))
		out = append(out,
			fmt.Sprintf("read_p50_us %.2f us (per-layer; window median; all n=%d: p50 %.2f, p%g %.2f, max %.2f us)", e2e["read_p50_us"], rt.N, rt.P50, rt.TailP, rt.Tail, rt.Max),
			fmt.Sprintf("windows read_p50_us %.2f", perWindow(r.at, r.lat, r.span, median)))
		notes = append(notes, rt.tailNote("read latency"))
	}
	for _, n := range notes {
		if n != "" {
			out = append(out, "note: "+n)
		}
	}
	late := summarize(append([]float64(nil), o.late...))
	out = append(out, fmt.Sprintf("generator lateness p50 %.4f ms, p%g %.4f ms, max %.4f ms (n=%d)", late.P50, late.TailP, late.Tail, late.Max, late.N))
	if late.Tail > 10 {
		out = append(out, fmt.Sprintf("note: FLAG generator fell behind: lateness p%g %.3f ms > 10 ms", late.TailP, late.Tail))
	}
	if c := o.conn; c != nil {
		out = append(out, fmt.Sprintf("connection: replayed %d, soft failures %d, store errors %d",
			c.Metrics.Replayed.Value(), c.Metrics.SoftFailures.Value(), c.Metrics.StoreErrors.Value()))
	}
	out = append(out, fmt.Sprintf("sampler poll interval %.1f us (target %v)", o.smp.pollMicros(), pollInterval))
	return out
}
