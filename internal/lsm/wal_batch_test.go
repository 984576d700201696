package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// newestSeg returns the path of the highest-numbered WAL segment in dir.
func newestSeg(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatalf("no WAL segments in %s", dir)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

func TestApplyBatchBasic(t *testing.T) {
	tr := openTest(t, Options{})
	b := NewBatch(4)
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	b.Put([]byte("c"), []byte("3"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Get([]byte("a")); ok {
		t.Fatal("delete inside batch did not win over earlier put")
	}
	for k, want := range map[string]string{"b": "2", "c": "3"} {
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
	// The batch is reusable after Reset.
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.Put([]byte("d"), []byte("4"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tr.Get([]byte("d")); !ok || string(v) != "4" {
		t.Fatalf("Get(d) after reused batch = %q, %v", v, ok)
	}
}

func TestApplyBatchDuplicateKeyLastWins(t *testing.T) {
	tr := openTest(t, Options{})
	b := NewBatch(3)
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("x"), []byte("2"))
	b.Put([]byte("x"), []byte("3"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tr.Get([]byte("x")); !ok || string(v) != "3" {
		t.Fatalf("Get(x) = %q, %v; want last writer 3", v, ok)
	}
}

// TestWALBatchRecovery crashes a tree after a batch commit and verifies the
// composite WAL record replays the whole batch.
func TestWALBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(64)
	for i := 0; i < 64; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	b.Delete([]byte("k007"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: flush OS buffers, close handles, skip memtable flush.
	tr.mu.Lock()
	tr.wal.w.Flush()
	tr.wal.f.Close()
	tr.mu.Unlock()

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, ok, _ := re.Get([]byte("k063")); !ok || string(v) != "v63" {
		t.Fatalf("recovered Get(k063) = %q, %v", v, ok)
	}
	if _, ok, _ := re.Get([]byte("k007")); ok {
		t.Fatal("recovery resurrected key deleted within the batch")
	}
	if n, _ := re.Len(); n != 63 {
		t.Fatalf("recovered Len = %d, want 63", n)
	}
}

// TestWALBatchTornTailAtomic truncates the WAL at every byte offset inside a
// batch record and verifies recovery drops the batch as a unit — the record
// before it always survives, and no partial prefix of the batch ever
// applies.
func TestWALBatchTornTailAtomic(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("pre"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// "pre" lives in the first segment; the batch will land at offset 0 of
	// the fresh segment the reopen creates.
	preSeg := newestSeg(t, dir)
	preBytes, err := os.ReadFile(preSeg)
	if err != nil {
		t.Fatal(err)
	}

	tr, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(3)
	b.Put([]byte("batch-a"), []byte("aa"))
	b.Put([]byte("batch-b"), []byte("bb"))
	b.Delete([]byte("pre"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	batchSeg := newestSeg(t, dir)
	if batchSeg == preSeg {
		t.Fatalf("reopen did not rotate to a new segment (still %s)", preSeg)
	}
	full, err := os.ReadFile(batchSeg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("batch record added no bytes")
	}

	for cut := 0; cut < len(full); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(preSeg)), preBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(batchSeg)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Dir: cutDir})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if v, ok, _ := re.Get([]byte("pre")); !ok || string(v) != "1" {
			t.Fatalf("cut %d: record before torn batch lost (got %q, %v)", cut, v, ok)
		}
		for _, k := range []string{"batch-a", "batch-b"} {
			if _, ok, _ := re.Get([]byte(k)); ok {
				t.Fatalf("cut %d: torn batch partially applied (%s present)", cut, k)
			}
		}
		re.Close()
	}

	// The intact file replays the batch in full, including the delete.
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, _ := re.Get([]byte("pre")); ok {
		t.Fatal("batch delete of pre not replayed")
	}
	for k, want := range map[string]string{"batch-a": "aa", "batch-b": "bb"} {
		if v, ok, _ := re.Get([]byte(k)); !ok || string(v) != want {
			t.Fatalf("intact replay Get(%s) = %q, %v", k, v, ok)
		}
	}
}

// TestWALBatchCorruptCRCDropped flips one byte inside a committed batch
// record and verifies replay rejects the whole batch.
func TestWALBatchCorruptCRCDropped(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tr.Put([]byte("pre"), []byte("1"))
	b := NewBatch(2)
	b.Put([]byte("ba"), []byte("x"))
	b.Put([]byte("bb"), []byte("y"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	tr.Close()

	path := newestSeg(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the batch's last value byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, ok, _ := re.Get([]byte("pre")); !ok || string(v) != "1" {
		t.Fatalf("record before corrupt batch lost (got %q, %v)", v, ok)
	}
	for _, k := range []string{"ba", "bb"} {
		if _, ok, _ := re.Get([]byte(k)); ok {
			t.Fatalf("corrupt batch partially applied (%s present)", k)
		}
	}
}

// TestWALMixedRecordKindsReplayInOrder interleaves single Puts and Deletes
// (one-entry batches) with multi-entry batches and verifies recovery applies
// them in log order (last writer wins). TestWALLegacySegmentReplays covers
// the top-level walPut/walDelete records older builds wrote.
func TestWALMixedRecordKindsReplayInOrder(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// 1. single puts
	tr.Put([]byte("a"), []byte("old"))
	tr.Put([]byte("gone"), []byte("x"))
	// 2. batch overwrites a, creates b
	b1 := NewBatch(2)
	b1.Put([]byte("a"), []byte("batched"))
	b1.Put([]byte("b"), []byte("1"))
	if err := tr.ApplyBatch(b1); err != nil {
		t.Fatal(err)
	}
	// 3. single delete between batches
	tr.Delete([]byte("gone"))
	// 4. second batch overwrites b, resurrects nothing
	b2 := NewBatch(2)
	b2.Put([]byte("b"), []byte("2"))
	b2.Delete([]byte("a"))
	if err := tr.ApplyBatch(b2); err != nil {
		t.Fatal(err)
	}
	// Crash without flushing the memtable.
	tr.mu.Lock()
	tr.wal.w.Flush()
	tr.wal.f.Close()
	tr.mu.Unlock()

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, _ := re.Get([]byte("a")); ok {
		t.Fatal("batch delete after single put not replayed in order")
	}
	if _, ok, _ := re.Get([]byte("gone")); ok {
		t.Fatal("single delete between batches not replayed in order")
	}
	if v, ok, _ := re.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v; want later batch to win", v, ok)
	}
	if n, _ := re.Len(); n != 1 {
		t.Fatalf("recovered Len = %d, want 1", n)
	}
}

// TestWALBatchGroupCommitSyncs verifies a batch counts as one append toward
// syncEvery: with SyncWAL=1, one ApplyBatch leaves nothing pending (the
// deferred group-commit fsync ran), regardless of batch size.
func TestWALBatchGroupCommitSyncs(t *testing.T) {
	tr := openTest(t, Options{SyncWAL: 1})
	b := NewBatch(100)
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	pending := tr.wal.pending
	tr.mu.Unlock()
	if pending != 0 {
		t.Fatalf("wal.pending = %d after synced batch, want 0 (one deferred fsync per batch)", pending)
	}
}

// legacyRecord encodes one top-level single-mutation WAL record the way
// builds before the batch-only write path did:
//
//	crc32(le u32) kind(1) klen(uvarint) vlen(uvarint) key value
func legacyRecord(kind walRecordKind, key, value string) []byte {
	body := []byte{byte(kind)}
	body = binary.AppendUvarint(body, uint64(len(key)))
	body = binary.AppendUvarint(body, uint64(len(value)))
	body = append(body, key...)
	body = append(body, value...)
	return append(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(body)), body...)
}

// TestWALLegacySegmentReplays opens a tree over a hand-written segment of
// walPut/walDelete records, followed by one batch record, and checks the
// mutations replay in log order: segments written by older builds keep
// recovering although the tree no longer writes those record kinds.
func TestWALLegacySegmentReplays(t *testing.T) {
	dir := t.TempDir()
	var seg []byte
	seg = append(seg, legacyRecord(walPut, "a", "1")...)
	seg = append(seg, legacyRecord(walPut, "b", "1")...)
	seg = append(seg, legacyRecord(walPut, "a", "2")...)
	seg = append(seg, legacyRecord(walDelete, "b", "")...)
	seg = append(seg, legacyRecord(walPut, "c", "1")...)
	path := filepath.Join(dir, "wal-000001.log")
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := openWAL(path, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendBatch([]batchOp{
		{kind: walDelete, key: []byte("c")},
		{kind: walPut, key: []byte("d"), value: []byte("1")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	m := &Metrics{}
	tr := openTest(t, Options{Dir: dir, Metrics: m})
	if got := m.RecoveryReplayed.Value(); got != 7 {
		t.Fatalf("replayed %d mutations, want 7", got)
	}
	want := map[string]string{"a": "2", "d": "1"}
	for _, k := range []string{"a", "b", "c", "d"} {
		v, ok, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if w, live := want[k]; ok != live || string(v) != w {
			t.Fatalf("Get(%s) = %q, %v; want %q, %v", k, v, ok, w, live)
		}
	}
	if n, _ := tr.Len(); n != len(want) {
		t.Fatalf("Len = %d, want %d", n, len(want))
	}
}
