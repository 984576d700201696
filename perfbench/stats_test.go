package main

import (
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"asterixfeeds/internal/adm"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}, {0, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsP99OnlyWithTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return s
	}
	full := summarize(samples(1000))
	if full.TailP != 99 || full.Tail != 990 || full.P50 != 500 || full.Max != 1000 || full.N != 1000 {
		t.Fatalf("1000 samples: %+v, want p99=990 p50=500 max=1000", full)
	}
	if note := full.tailNote("x"); note != "" {
		t.Errorf("1000 samples flagged: %q", note)
	}
	short := summarize(samples(999))
	if short.TailP != 95 || short.Tail != 950 {
		t.Fatalf("999 samples: %+v, want p95=950", short)
	}
	if note := short.tailNote("write latency"); !strings.Contains(note, "p95 instead of p99") {
		t.Errorf("999 samples not flagged: %q", note)
	}
	if empty := summarize(nil); empty.N != 0 || empty.TailP != 0 {
		t.Errorf("no samples: %+v", empty)
	}
}

func TestMatchCurve(t *testing.T) {
	due := []int64{0, 10, 20, 30}
	curve := []curvePoint{{At: 5, Done: 1}, {At: 25, Done: 3}, {At: 40, Done: 4}}
	lat, unmatched := matchCurve(due, curve)
	want := []int64{5, 15, 5, 10}
	if unmatched != 0 || len(lat) != len(want) {
		t.Fatalf("lat=%v unmatched=%d", lat, unmatched)
	}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("record %d: latency %d, want %d (done at the first observation covering it, minus its due time)", i, lat[i], want[i])
		}
	}
	// A counter that jumps past several records completes them together.
	lat, _ = matchCurve([]int64{0, 1, 2}, []curvePoint{{At: 9, Done: 3}})
	if lat[0] != 9 || lat[1] != 8 || lat[2] != 7 {
		t.Errorf("jump: %v", lat)
	}
	// Records the counter never reaches are unmatched, not given a latency.
	lat, unmatched = matchCurve(due, curve[:2])
	if len(lat) != 3 || unmatched != 1 {
		t.Errorf("short curve: lat=%v unmatched=%d, want 3 matched and 1 unmatched", lat, unmatched)
	}
}

func TestFailedFracCountsMissingRecord(t *testing.T) {
	want := map[string]uint64{"a": 1, "b": 2, "c": 3, "d": 4}
	got := map[string]uint64{"a": 1, "b": 2, "d": 4} // c injected missing
	var tl tally
	checkStored(want, got, nil, &tl)
	if tl.attempted != 4 || tl.failed != 1 || tl.reasons["record missing"] != 1 {
		t.Fatalf("missing record: %+v", tl)
	}
	if f := tl.frac(); math.Abs(f-0.25) > 1e-12 {
		t.Errorf("failed_frac = %g, want 0.25", f)
	}

	got = map[string]uint64{"a": 1, "b": 9, "c": 3, "d": 4, "e": 5} // b wrong, e phantom
	tl = tally{}
	checkStored(want, got, nil, &tl)
	if tl.failed != 2 || tl.reasons["record persisted wrong"] != 1 || tl.reasons["phantom record"] != 1 {
		t.Errorf("wrong+phantom: %+v", tl)
	}
}

func TestStaleReplacedKeyFails(t *testing.T) {
	want := map[string]uint64{"a": 3, "b": 5}
	versions := map[string][]uint64{"a": {1, 2, 3}}
	var tl tally
	checkStored(want, map[string]uint64{"a": 2, "b": 5}, versions, &tl) // a left at version 2 of 3
	if tl.attempted != 2 || tl.failed != 1 || tl.reasons["replaced key holds an earlier version"] != 1 {
		t.Errorf("stale replaced key: %+v", tl)
	}
	tl = tally{}
	checkStored(want, map[string]uint64{"a": 9, "b": 5}, versions, &tl) // never sent
	if tl.failed != 1 || tl.reasons["record persisted wrong"] != 1 {
		t.Errorf("unsent content: %+v", tl)
	}
}

// The order probe's input: every version of a replaced key is listed in the
// order sent, so the last one is what the dataset must hold, and any earlier
// one left stored counts as stale.
func TestRecentReplacementsListEveryVersion(t *testing.T) {
	in, versions := recentReplacements(1_000_001, rand.New(rand.NewSource(1)), 2000)
	want := wantOf(in)
	if len(versions) == 0 || len(want) >= len(in.ids) {
		t.Fatalf("%d replaced keys, %d distinct of %d records: want some replaced", len(versions), len(want), len(in.ids))
	}
	sent := map[string][]uint64{}
	for i, id := range in.ids {
		sent[id] = append(sent[id], in.digests[i])
	}
	for id, v := range versions {
		if !slices.Equal(v, sent[id]) {
			t.Fatalf("%s: versions %v, sent %v", id, v, sent[id])
		}
		if v[len(v)-1] != want[id] {
			t.Fatalf("%s: last version %d, want %d", id, v[len(v)-1], want[id])
		}
	}
	var tl tally
	got := maps.Clone(want)
	for id, v := range versions {
		got[id] = v[0]
		break
	}
	checkStored(want, got, versions, &tl)
	if tl.failed != 1 || tl.reasons[staleVersion] != 1 {
		t.Errorf("one key left at its first version: %+v", tl)
	}
}

func TestFailedFracCountsWrongLookup(t *testing.T) {
	rec := func(id, text string) *adm.Record {
		return (&adm.RecordBuilder{}).Add("id", adm.String(id)).Add("message_text", adm.String(text)).MustBuild()
	}
	right := rec("k1", "hello")
	d := digest(adm.Encode(right))
	var tl tally
	tl.check(lookupOK("k1", d, right, true, nil), "lookup wrong or missing")
	tl.check(lookupOK("k1", d, rec("k2", "hello"), true, nil), "lookup wrong or missing") // another id
	tl.check(lookupOK("k1", d, rec("k1", "stale"), true, nil), "lookup wrong or missing") // another version
	tl.check(lookupOK("k1", d, nil, false, nil), "lookup wrong or missing")               // miss
	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("lookups: %+v, want 3 of 4 failed", tl)
	}
	if f := tl.frac(); math.Abs(f-0.75) > 1e-12 {
		t.Errorf("failed_frac = %g, want 0.75", f)
	}
}

func TestSoftFailureCountMismatchFails(t *testing.T) {
	var tl tally
	checkCount("soft", 5, 5, &tl)
	if tl.attempted != 5 || tl.failed != 0 {
		t.Errorf("equal counts: %+v", tl)
	}
	tl = tally{}
	checkCount("soft", 5, 3, &tl)
	if tl.attempted != 5 || tl.failed != 2 {
		t.Errorf("too few: %+v", tl)
	}
	tl = tally{}
	checkCount("soft", 5, 8, &tl)
	if tl.attempted != 8 || tl.failed != 3 {
		t.Errorf("too many: %+v", tl)
	}
}

// The metric names and units the program reports must be the ones
// BENCHMARK.json declares, or every run would be refused.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
