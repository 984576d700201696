package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/storage"
)

// discardWriter is a terminal hyracks.Writer that drops every frame.
type discardWriter struct{}

func (discardWriter) Open() error                    { return nil }
func (discardWriter) NextFrame(*hyracks.Frame) error { return nil }
func (discardWriter) Close() error                   { return nil }
func (discardWriter) Fail(error)                     {}

// newStoreFixture builds a store runtime over one partition of a tweets
// dataset (btree on message_text), outside any job, with at-least-once
// tracking and soft-failure recovery on. fault, when non-nil, is the
// partition's LSM fault hook.
func newStoreFixture(t *testing.T, maxConsecutive int, fault lsm.FaultHook) (*storeRuntime, *Connection) {
	t.Helper()
	sm := storage.NewManager("A", t.TempDir(), lsm.Options{FaultHook: fault})
	t.Cleanup(func() { sm.Close() })
	ds := &storage.Dataset{
		Dataverse: "feeds",
		Name:      "Tweets",
		Type: adm.MustRecordType("TweetType", true, []adm.Field{
			{Name: "id", Type: adm.TString},
			{Name: "message_text", Type: adm.TString},
		}),
		PrimaryKey: []string{"id"},
		NodeGroup:  []string{"A"},
		Indexes:    []storage.IndexDecl{{Name: "text_idx", Field: "message_text", Kind: storage.BTree}},
	}
	part, err := sm.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	pol := &Policy{Name: "test", AtLeastOnce: true, RecoverSoft: true, SoftFailureLogData: true, MaxConsecutiveSoftFailures: maxConsecutive}
	conn := &Connection{id: "c", ds: ds, pol: pol, Metrics: newConnMetrics(time.Second), Log: NewExceptionLog(0), tracker: newAckTracker(time.Hour)}
	conn.storeEnabled.Store(true)
	rt := &storeRuntime{
		op:   &storeOp{conn: conn, ds: ds},
		ctx:  &hyracks.TaskContext{NodeID: "A"},
		out:  discardWriter{},
		part: part,
		mf:   newMetaFeed("store:feeds.Tweets", "A", pol, conn.Log),
	}
	return rt, conn
}

// trackedFrame builds a frame the way intake does under at-least-once: each
// record is tracked and enveloped with its id. A spec of "g<n>" is a good
// record with id n; "b<n>" lacks the required message_text field.
func trackedFrame(conn *Connection, specs ...string) (*hyracks.Frame, [][]byte) {
	f := hyracks.NewFrame(len(specs))
	payloads := make([][]byte, 0, len(specs))
	for _, s := range specs {
		b := (&adm.RecordBuilder{}).Add("id", adm.String(s))
		if s[0] == 'g' {
			b.Add("message_text", adm.String("text of "+s))
		}
		payload := adm.Encode(b.MustBuild())
		payloads = append(payloads, payload)
		f.Append(wrapTracked(conn.tracker.track(0, payload), payload))
	}
	return f, payloads
}

// TestStoreRuntimeSoftFailsEachBadRecord drives frames holding a bad record
// first, in the middle and last, then an all-bad frame: every good record
// is persisted and acked, every bad one is logged and counted as a soft
// failure exactly once and acked too, and nothing is left pending.
func TestStoreRuntimeSoftFailsEachBadRecord(t *testing.T) {
	rt, conn := newStoreFixture(t, 0, nil)
	frames := [][]string{
		{"b1", "g1", "g2", "g3"},
		{"g4", "g5", "b2", "g6", "g7"},
		{"g8", "g9", "g10", "b3"},
		{"b4", "b5", "b6"},
	}
	var bad [][]byte
	good := 0
	for _, specs := range frames {
		f, payloads := trackedFrame(conn, specs...)
		if err := rt.NextFrame(f); err != nil {
			t.Fatal(err)
		}
		for i, s := range specs {
			if s[0] == 'b' {
				bad = append(bad, payloads[i])
			} else {
				good++
			}
		}
	}

	if got := conn.Metrics.Persisted.Total(); got != int64(good) {
		t.Fatalf("Persisted = %d, want %d", got, good)
	}
	if n, _ := rt.part.Count(); n != good {
		t.Fatalf("partition holds %d records, want %d", n, good)
	}
	if err := rt.part.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	if got := conn.Metrics.SoftFailures.Value(); got != int64(len(bad)) {
		t.Fatalf("SoftFailures = %d, want %d", got, len(bad))
	}
	if got := conn.Metrics.StoreErrors.Value(); got != 0 {
		t.Fatalf("StoreErrors = %d, want 0", got)
	}
	entries := conn.Log.Entries()
	if len(entries) != len(bad) {
		t.Fatalf("exception log holds %d entries, want %d", len(entries), len(bad))
	}
	for i, e := range entries {
		if !bytes.Equal(e.Record, bad[i]) {
			t.Fatalf("log entry %d holds record %x, want bad record %x", i, e.Record, bad[i])
		}
	}
	if n := conn.tracker.pendingCount(); n != 0 {
		t.Fatalf("%d records left un-acked, want 0 (good and bad records are acked)", n)
	}
}

// TestStoreRuntimeConsecutiveSoftFailureBound: good records between bad
// ones end a run of soft failures, so the bound trips only inside the
// all-bad frame, on its limit-th consecutive bad record (counting the bad
// record that ended the frame before it). The record that trips is logged
// but not counted as skipped.
func TestStoreRuntimeConsecutiveSoftFailureBound(t *testing.T) {
	for _, limit := range []int{3, 4} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			rt, conn := newStoreFixture(t, limit, nil)
			frames := [][]string{
				{"b1", "g1", "g2", "g3"},
				{"g4", "g5", "b2", "g6", "g7"},
				{"g8", "g9", "g10", "b3"},
				{"b4", "b5", "b6", "b7"},
			}
			for i, specs := range frames {
				f, _ := trackedFrame(conn, specs...)
				err := rt.NextFrame(f)
				var tooMany *errTooManySoftFailures
				if i < len(frames)-1 {
					if err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
					continue
				}
				if !errors.As(err, &tooMany) {
					t.Fatalf("all-bad frame = %v, want the consecutive-failure bound", err)
				}
			}
			// b3 starts the run: b4..b(limit+2) trip it at run length limit.
			if got, want := conn.Log.Total(), int64(3+limit-1); got != want {
				t.Fatalf("exception log total = %d, want %d", got, want)
			}
			if got, want := conn.Metrics.SoftFailures.Value(), int64(3+limit-2); got != want {
				t.Fatalf("SoftFailures = %d, want %d", got, want)
			}
			entries := conn.Log.Entries()
			last := entries[len(entries)-1].Record
			if want := fmt.Sprintf("b%d", limit+2); !bytes.Contains(last, []byte(want)) {
				t.Fatalf("bound tripped on %q, want record %s", last, want)
			}
		})
	}
}

// TestStoreRuntimeEnvironmentalErrorLeavesFrameUnacked: a WAL failure is
// not the records' fault, so the frame is neither acked nor soft-failed —
// it stays pending for the at-least-once sweeper, and storing the replayed
// frame acks it.
func TestStoreRuntimeEnvironmentalErrorLeavesFrameUnacked(t *testing.T) {
	armed := false
	rt, conn := newStoreFixture(t, 0, func(op string) error {
		if armed && strings.HasSuffix(op, "primary/wal.appendBatch") {
			armed = false
			return lsm.ErrInjected
		}
		return nil
	})
	f, _ := trackedFrame(conn, "g1", "b1", "g2")
	armed = true
	if err := rt.NextFrame(f); err != nil {
		t.Fatal(err)
	}
	if got := conn.Metrics.StoreErrors.Value(); got != 2 {
		t.Fatalf("StoreErrors = %d, want the 2 good records", got)
	}
	if got := conn.Metrics.SoftFailures.Value(); got != 1 {
		t.Fatalf("SoftFailures = %d, want 1", got)
	}
	if n := conn.tracker.pendingCount(); n != 2 {
		t.Fatalf("%d records pending, want the 2 good records (the bad one is acked)", n)
	}
	if n, _ := rt.part.Count(); n != 0 {
		t.Fatalf("partition holds %d records after the failed insert, want 0", n)
	}

	// The sweeper's replay carries the same wire records.
	if err := rt.NextFrame(f); err != nil {
		t.Fatal(err)
	}
	if n := conn.tracker.pendingCount(); n != 0 {
		t.Fatalf("%d records pending after the replay, want 0", n)
	}
	if n, _ := rt.part.Count(); n != 2 {
		t.Fatalf("partition holds %d records, want 2", n)
	}
}
