package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fill puts n sequential records with a value tag, so tests can tell which
// session (or which run/segment) a recovered value came from.
func fill(t *testing.T, tr *Tree, start, n int, tag string) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(tag)); err != nil {
			t.Fatal(err)
		}
	}
}

func wantAll(t *testing.T, tr *Tree, start, n int, tag string) {
	t.Helper()
	for i := start; i < start+n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(v) != tag {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, v, ok, err, tag)
		}
	}
}

func globOne(t *testing.T, dir, pat string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pat))
	if err != nil || len(names) != 1 {
		t.Fatalf("glob %s = %v, %v; want exactly one", pat, names, err)
	}
	return names[0]
}

// TestCleanCheckpointReplaysZero is the bounded-recovery contract: after a
// flush (the checkpoint) and a clean close, reopening replays nothing —
// every record is in a committed run and the manifest floor retires every
// covering WAL segment.
func TestCleanCheckpointReplaysZero(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	fill(t, tr, 0, 200, "v1")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	m := &Metrics{}
	tr2 := openTest(t, Options{Dir: dir, Metrics: m})
	if got := m.RecoveryReplayed.Value(); got != 0 {
		t.Fatalf("clean checkpoint reopen replayed %d WAL records; want 0", got)
	}
	wantAll(t, tr2, 0, 200, "v1")
}

// TestRetiredSegmentNotReplayed is the double-apply regression: a WAL
// segment retired by a committed flush may linger on disk when the crash
// lands between the manifest append and the unlink. Replaying it would
// clobber newer values with stale ones — the manifest floor must delete it
// instead.
func TestRetiredSegmentNotReplayed(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	if err := tr.Put([]byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil { // commits run, floor = segment 1, unlinks it
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect the retired segment with a stale value, simulating the lost
	// unlink: the flush commit is durable, the delete never happened.
	seg := filepath.Join(dir, "wal-000001.log")
	w, err := openWAL(seg, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendBatch([]batchOp{{kind: walPut, key: []byte("k"), value: []byte("stale")}}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	m := &Metrics{}
	tr2 := openTest(t, Options{Dir: dir, Metrics: m})
	v, ok, err := tr2.Get([]byte("k"))
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get(k) = %q, %v, %v; stale retired segment was replayed", v, ok, err)
	}
	if got := m.RecoveryReplayed.Value(); got != 0 {
		t.Fatalf("reopen replayed %d records from a retired segment; want 0", got)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("retired segment %s still on disk after reopen", seg)
	}
}

// TestFlushCommitFailureLosesNothing is the publish-before-commit
// regression: when the manifest append fails after the run file is renamed
// into place, the flush must NOT delete its WAL segments — the run is not
// committed, so the segments are still the records' only durable home. A
// clean reopen recovers everything from the WAL and sweeps the orphaned run.
func TestFlushCommitFailureLosesNothing(t *testing.T) {
	dir := t.TempDir()
	appends := 0
	hook := func(op string) error {
		if op != "manifest:append" {
			return nil
		}
		appends++
		if appends == 2 { // 1 is Open's own snapshot; 2 is the flush commit
			return ErrInjected
		}
		return nil
	}
	tr, err := Open(Options{Dir: dir, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 0, 50, "v1")
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush succeeded despite failed manifest commit")
	}
	// The run was published before the commit failed; the segment must
	// still exist because the commit never happened.
	globOne(t, dir, "run-*.lsm")
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) == 0 {
		t.Fatal("WAL segments deleted despite failed manifest commit")
	}
	tr.Close() //nolint:errcheck // wedged

	tr2 := openTest(t, Options{Dir: dir})
	wantAll(t, tr2, 0, 50, "v1")
	// The uncommitted run is an orphan: its records are covered by the
	// replayed segments, so recovery deletes it rather than double-count it.
	if runs, _ := filepath.Glob(filepath.Join(dir, "run-*.lsm")); len(runs) != 0 {
		t.Fatalf("orphaned run not swept on reopen: %v", runs)
	}
}

// TestManifestMissingRunFailsLoudly: a manifest that lists a run whose file
// is gone means committed data was lost outside the protocol. Open must
// refuse — silently reopening with whatever remains would present a
// narrower database as healthy.
func TestManifestMissingRunFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	fill(t, tr, 0, 50, "v1")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(globOne(t, dir, "run-*.lsm")); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "refusing to open") {
		t.Fatalf("Open with missing committed run = %v; want loud refusal", err)
	}
}

// TestCorruptManifestFallsBackToScan: any defect in the manifest — a torn
// tail, trailing garbage, a truncated record — must drop recovery to the
// verified directory scan, which reconstructs the same contents.
func TestCorruptManifestFallsBackToScan(t *testing.T) {
	corruptions := map[string]func(t *testing.T, path string){
		"trailing garbage": func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		},
		"truncated": func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			tr := openTest(t, Options{Dir: dir})
			fill(t, tr, 0, 100, "flushed")
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			fill(t, tr, 100, 20, "tail") // unflushed: lives only in the WAL
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, globOne(t, dir, "MANIFEST-[0-9]*"))

			tr2 := openTest(t, Options{Dir: dir})
			wantAll(t, tr2, 0, 100, "flushed")
			wantAll(t, tr2, 100, 20, "tail")
		})
	}
}

// TestStartupDebrisSweep plants every debris species one code path must
// handle — interrupted flush/merge temps, a torn manifest temp, an
// uncommitted orphan run, an empty staged WAL segment — and checks one
// reopen removes them all without touching a live record.
func TestStartupDebrisSweep(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	fill(t, tr, 0, 50, "flushed")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 50, 10, "tail")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	garbage := []byte("crash debris, never renamed or committed")
	debris := []string{
		"run-000097.lsm.tmp",  // interrupted flush or merge output
		"MANIFEST-000099.tmp", // interrupted manifest snapshot
		"run-000098.lsm",      // published run whose commit record was lost
		"wal-000050.log",      // staged segment that lost its rotation race
	}
	for _, name := range debris {
		content := garbage
		if name == "wal-000050.log" {
			content = nil // staged segments are empty by construction
		}
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m := &Metrics{}
	tr2 := openTest(t, Options{Dir: dir, Metrics: m})
	for _, name := range debris {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("debris %s survived the startup sweep", name)
		}
	}
	wantAll(t, tr2, 0, 50, "flushed")
	wantAll(t, tr2, 50, 10, "tail")
	if got := m.RecoveryReplayed.Value(); got != 10 {
		t.Fatalf("reopen replayed %d records; want exactly the 10-record tail", got)
	}
}

// TestCrashDuringRecoverySecondOpenExact: recovery itself must be
// crash-safe. Whether the crash lands mid-replay or while writing the
// open-time manifest snapshot, the aborted Open may not move or lose
// anything a second, clean Open needs.
func TestCrashDuringRecoverySecondOpenExact(t *testing.T) {
	crashes := map[string]func(hits map[string]int) func(string) error{
		"mid-replay": func(hits map[string]int) func(string) error {
			return func(op string) error {
				if op == "recover:replay" {
					hits[op]++
					if hits[op] == 7 {
						return ErrInjected
					}
				}
				return nil
			}
		},
		"torn manifest snapshot": func(hits map[string]int) func(string) error {
			return func(op string) error {
				if op == "manifest:append" {
					hits[op]++
					if hits[op] == 1 {
						return ErrTornWrite
					}
				}
				return nil
			}
		},
	}
	for name, mkHook := range crashes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			tr := openTest(t, Options{Dir: dir})
			fill(t, tr, 0, 20, "v1") // unflushed: recovery must replay all 20
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}

			hits := make(map[string]int)
			if _, err := Open(Options{Dir: dir, FaultHook: mkHook(hits)}); err == nil {
				t.Fatal("faulted Open succeeded; crash never injected")
			}

			tr2 := openTest(t, Options{Dir: dir})
			wantAll(t, tr2, 0, 20, "v1")
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("crashed recovery's temp debris survived the second open: %v", tmps)
			}
		})
	}
}

// TestRecoveryProportionalToTail: replay work tracks the post-checkpoint
// tail, not total history — the manifest floor retires everything a
// committed flush covered.
func TestRecoveryProportionalToTail(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	fill(t, tr, 0, 500, "flushed")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 500, 25, "tail")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	m := &Metrics{}
	tr2 := openTest(t, Options{Dir: dir, Metrics: m})
	if got := m.RecoveryReplayed.Value(); got != 25 {
		t.Fatalf("reopen replayed %d records; want 25 (the unflushed tail), independent of the 500-record history", got)
	}
	wantAll(t, tr2, 0, 500, "flushed")
	wantAll(t, tr2, 500, 25, "tail")
}

// TestManifestRewriteBounded: every manifestRewriteEvery edits fold into a
// fresh durable snapshot and older generations are swept, so the manifest
// directory never accumulates history.
func TestManifestRewriteBounded(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	tr := openTest(t, Options{Dir: dir, Metrics: m, MaxRuns: 1 << 30})
	for i := 0; i < manifestRewriteEvery+2; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.ManifestRewrites.Value(); got < 2 { // Open's snapshot + at least one fold
		t.Fatalf("ManifestRewrites = %d; want the edit threshold to have forced a rewrite", got)
	}
	if mans, _ := filepath.Glob(filepath.Join(dir, "MANIFEST-[0-9]*")); len(mans) != 1 {
		t.Fatalf("manifest generations on disk = %v; want exactly one", mans)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2 := openTest(t, Options{Dir: dir})
	for i := 0; i < manifestRewriteEvery+2; i++ {
		if _, ok, err := tr2.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || !ok {
			t.Fatalf("k%d lost across rewrite+reopen (ok=%v err=%v)", i, ok, err)
		}
	}
}

// TestManifestParseRejectsDefects exercises parseManifest directly on the
// defect classes the strict parser must refuse (each drops recovery to the
// directory scan).
func TestManifestParseRejectsDefects(t *testing.T) {
	good := manRecord(manSnapshotBody([]string{"run-000001.lsm"}, 3))
	flush := manRecord(manFlushBody("run-000002.lsm", 5))
	cases := map[string][]byte{
		"empty":                {},
		"torn record":          good[:len(good)-2],
		"flipped crc":          append(append([]byte{}, good[0]^0xff), good[1:]...),
		"first not a snapshot": flush,
		"trailing garbage":     append(append([]byte{}, good...), 0x7),
	}
	for name, data := range cases {
		if _, ok := parseManifest(data); ok {
			t.Errorf("parseManifest accepted %s", name)
		}
	}
	st, ok := parseManifest(append(append([]byte{}, good...), flush...))
	if !ok || len(st.runs) != 2 || st.runs[0] != "run-000002.lsm" || st.floor != 5 {
		t.Fatalf("parseManifest(snapshot+flush) = %+v, %v; want newest-first runs and floor 5", st, ok)
	}
}
