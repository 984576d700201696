package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestScheduleRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		s := GenSchedule(seed)
		parsed, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if parsed.String() != s.String() {
			t.Fatalf("seed %d: round trip %q != %q", seed, parsed.String(), s.String())
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, bad := range []string{"nohit", "p@x:err", "p@0:err", "p@1:bogus", "p@1"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", bad)
		}
	}
	if s, err := ParseSchedule("  "); err != nil || s != nil {
		t.Errorf("blank schedule = %v, %v; want nil, nil", s, err)
	}
}

func TestGenScheduleDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		if a, b := GenSchedule(seed).String(), GenSchedule(seed).String(); a != b {
			t.Fatalf("seed %d: schedules differ: %q vs %q", seed, a, b)
		}
	}
}

// TestRunDeterministic: the acceptance criterion — the same seed yields the
// same fault schedule, firing set, and verdict on repeated runs.
func TestRunDeterministic(t *testing.T) {
	sc := Scenario{Seed: 7, Records: 150, Timeout: 60 * time.Second}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule != b.Schedule {
		t.Fatalf("schedules differ across runs: %q vs %q", a.Schedule, b.Schedule)
	}
	if a.Passed() != b.Passed() {
		t.Fatalf("verdicts differ across runs: %v (%v) vs %v (%v)",
			a.Passed(), a.Failures, b.Passed(), b.Failures)
	}
	if !a.Passed() {
		t.Fatalf("seed 7 run failed: %v (schedule %q)", a.Failures, a.Schedule)
	}
}

// TestSeedSweep: a small sweep across generated schedules; every invariant
// must hold under every schedule. The CI smoke sweep (make chaos-smoke)
// covers 50 seeds via cmd/feedchaos.
func TestSeedSweep(t *testing.T) {
	n := int64(4)
	if testing.Short() {
		n = 2
	}
	for seed := int64(1); seed <= n; seed++ {
		res, err := Run(Scenario{Seed: seed, Records: 150})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Passed() {
			t.Errorf("seed %d failed (schedule %q, fired %v): %v",
				seed, res.Schedule, res.Fired, res.Failures)
		}
		if res.Emitted == 0 || res.Stored != res.Emitted {
			t.Errorf("seed %d: stored %d of %d emitted", seed, res.Stored, res.Emitted)
		}
	}
}

// TestTornWALMidInsertFrame pins the acceptance criterion "fault injected
// in the middle of an InsertFrame batch is demonstrably covered": a torn
// WAL write during a frame insert kills the store node, the replica is
// promoted, and no record is lost or fabricated.
func TestTornWALMidInsertFrame(t *testing.T) {
	sched := Schedule{{Point: "lsm:B/p000/primary/wal.appendBatch", Hit: 3, Action: ActTorn}}
	res, err := Run(Scenario{Seed: 11, Records: 200, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 1 {
		t.Fatalf("torn fault did not fire: fired=%v unfired=%v", res.Fired, res.Unfired)
	}
	if !res.Passed() {
		t.Fatalf("invariants violated after torn WAL mid-InsertFrame: %v", res.Failures)
	}
}

// TestStoreNodeKillAtFrameBoundary covers the satellite requirement from the
// other direction: node death at an exact frame boundary during storage.
func TestStoreNodeKillAtFrameBoundary(t *testing.T) {
	sched := Schedule{{Point: "frame:C:Store", Hit: 2, Action: ActKill}}
	res, err := Run(Scenario{Seed: 13, Records: 200, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 1 {
		t.Fatalf("kill fault did not fire: fired=%v unfired=%v", res.Fired, res.Unfired)
	}
	if !res.Passed() {
		t.Fatalf("invariants violated after store-node kill: %v", res.Failures)
	}
}

// TestShrinkMinimizesFailingSchedule: losing both store nodes genuinely
// fails (no live replica ⇒ the connection terminates early, records are
// lost); shrinking must keep both kills and drop the irrelevant benign
// fault — each kill alone recovers cleanly.
func TestShrinkMinimizesFailingSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("shrink re-runs the scenario several times")
	}
	sc := Scenario{
		Seed:    17,
		Records: 150,
		Schedule: Schedule{
			{Point: "core:ack:B", Hit: 1, Action: ActErr},
			{Point: "frame:B:Store", Hit: 1, Action: ActKill},
			{Point: "frame:C:Store", Hit: 1, Action: ActKill},
		},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatalf("double store-node loss unexpectedly passed (fired %v)", res.Fired)
	}
	min, err := Shrink(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) != 2 {
		t.Fatalf("shrunk schedule %q, want exactly the two kills", min.String())
	}
	for _, f := range min {
		if f.Action != ActKill || !strings.HasPrefix(f.Point, "frame:") {
			t.Fatalf("shrunk schedule kept non-kill fault %s", f.String())
		}
	}
}
