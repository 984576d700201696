package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Options configures a Tree. The zero value is usable given a Dir.
type Options struct {
	// Dir is the directory holding the tree's WAL segments and run files.
	Dir string
	// MemtableBytes is the rotation threshold; default 4 MiB. A memtable
	// reaching it is frozen onto the immutable queue for the background
	// flusher and writes continue into a fresh one.
	MemtableBytes int
	// MaxImmutables bounds the immutable-memtable queue; default 2. When
	// the queue is full a writer needing to rotate blocks (with the tree
	// lock released) until the flusher drains one — the tree's explicit
	// backpressure bound, surfaced as Stats.WriteStalls and
	// Metrics.WriteStalls.
	MaxImmutables int
	// MaxRuns triggers a full tiered merge when exceeded; default 4.
	MaxRuns int
	// SyncWAL groups WAL fsyncs: 0 disables syncing (fastest, used by
	// experiments), 1 syncs every write (durable), n syncs every n writes.
	SyncWAL int
	// BlockBytes is the target encoded size of a run block; default 32 KiB.
	// Smaller blocks mean finer cache granularity and more sparse-index
	// entries; larger blocks amortize per-read overhead across more entries.
	BlockBytes int
	// BlockCache, when non-nil, caches run blocks across every tree that
	// shares it — typically one cache per node, so hot blocks from all
	// partitions compete for a single memory budget. A nil cache reads every
	// block from disk.
	BlockCache *BlockCache
	// FaultHook, when non-nil, is consulted at the tree's WAL and
	// background-pipeline failure points. Only fault-injection harnesses
	// set this; see FaultHook.
	FaultHook FaultHook
	// Metrics, when non-nil, receives WAL/flush/merge counter updates;
	// one Metrics value may be shared by many trees. See Metrics.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxImmutables <= 0 {
		o.MaxImmutables = 2
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 4
	}
	return o
}

// flushRetryDelay spaces retries of a transiently failed background flush
// or merge (an injected ErrInjected, modelling e.g. a passing EIO).
const flushRetryDelay = 2 * time.Millisecond

// Stats reports a tree's component structure.
type Stats struct {
	// MemtableEntries counts entries across the mutable memtable and any
	// immutables queued for flush; MemtableBytes their approximate
	// footprint.
	MemtableEntries int
	MemtableBytes   int
	// Immutables is the number of frozen memtables queued for the
	// background flusher.
	Immutables int
	// Runs is the number of immutable disk components.
	Runs int
	// RunEntries is the total entry count across disk components.
	RunEntries int
	// CompactionDebt is the number of runs beyond MaxRuns awaiting the
	// background merge.
	CompactionDebt int
	// Flushes and Merges count completed background lifecycle operations
	// since open.
	Flushes, Merges int
	// WriteStalls counts writer stall episodes: rotations that had to wait
	// because MaxImmutables flushes were already queued.
	WriteStalls int
}

// Add accumulates o into s, for aggregating statistics across trees.
func (s *Stats) Add(o Stats) {
	s.MemtableEntries += o.MemtableEntries
	s.MemtableBytes += o.MemtableBytes
	s.Immutables += o.Immutables
	s.Runs += o.Runs
	s.RunEntries += o.RunEntries
	s.CompactionDebt += o.CompactionDebt
	s.Flushes += o.Flushes
	s.Merges += o.Merges
	s.WriteStalls += o.WriteStalls
}

// flushTask is one frozen memtable on the immutable queue, paired with the
// WAL segment (and, for the recovery memtable, the replayed segment files)
// whose records it holds. The flusher retires the segments only after the
// memtable's run file is fsynced and renamed into place.
type flushTask struct {
	mem  *memtable
	wal  *wal
	segs []string // replayed segment paths (oldest first), recovery only
	seq  int      // run sequence number, claimed at rotation
}

// Tree is an LSM tree: a WAL-protected memtable over a stack of immutable
// sorted runs with tiered merging. Safe for concurrent use.
//
// Disk I/O runs off the write path: writes rotate a full memtable onto an
// immutable queue and continue into a fresh one, a background flusher
// drains the queue to run files, and a background compactor merges runs —
// so t.mu is never held across a run write, an fsync, or a merge. Readers
// take a snapshot (mutable memtable, frozen immutables, retained runs)
// under a brief read lock and do all disk reads outside it. Writers block
// only when MaxImmutables frozen memtables pile up (Stats.WriteStalls).
type Tree struct {
	opt Options

	mu      sync.RWMutex
	mem     *memtable
	imms    []*flushTask // newest first; the flusher drains from the tail
	runs    []*run       // newest first
	wal     *wal         // active segment; rotated with the memtable
	memSegs []string     // replayed segments backing mem (recovery only)
	walSeq  int          // last WAL segment number issued
	// nextWAL is a segment pre-opened by the flusher for the next
	// rotation, so the common rotation path swaps files under t.mu
	// without creating one. Nil when no segment is staged.
	nextWAL *wal
	// man is the durable edit log of committed structural changes (run
	// published, runs merged, segments retired); see manifest.go. It has
	// its own serialization (a gate token, like wal.gateC) because commits
	// fsync — they must never run under t.mu.
	man *manifest
	seq int // last run sequence number issued
	// retiring counts flush passes whose run is published but whose
	// manifest commit and segment retirement have not finished. Flush
	// waits for it to reach zero: a checkpoint is only complete once
	// committed. A failure past publish wedges the tree instead of
	// decrementing it, so Flush then reports bgErr.
	retiring int
	flushes  int
	merges   int
	stalls   int
	closed   bool
	// bgErr wedges the tree when the background pipeline hits a
	// non-retryable failure (torn run write, segment retire failure):
	// mutations and Flush/Merge fail fast, reads keep working, and the
	// on-disk state stays exactly crash-consistent.
	bgErr error
	// forceCompact makes the next compactor pass merge even when the run
	// count is within MaxRuns; set by Merge.
	forceCompact bool
	// stateC is closed and replaced on every state transition (rotation,
	// flush publish, merge publish, wedge, close). Waiters — writers
	// stalled on backpressure, Flush, Merge — grab the current channel
	// under the lock, release the lock, block on a receive, and re-check
	// their predicate. A channel rather than a sync.Cond so that no lock
	// is ever held into a blocking wait anywhere in the tree.
	stateC chan struct{}

	flushC   chan struct{} // kicks the flusher; buffered 1
	compactC chan struct{} // kicks the compactor; buffered 1
	done     chan struct{}
	// flusherDone/compactorDone are closed by the workers on exit; Close
	// joins on them (a close-signaled receive, so no lock is ever held
	// into a blocking join anywhere above the tree).
	flusherDone   chan struct{}
	compactorDone chan struct{}
}

func errClosed() error { return fmt.Errorf("lsm: tree closed") }

// runCfg bundles the read-path plumbing handed to every run the tree opens
// or writes.
func (t *Tree) runCfg() runConfig {
	return runConfig{
		blockBytes: t.opt.BlockBytes,
		cache:      t.opt.BlockCache,
		fault:      t.opt.FaultHook,
		metrics:    t.opt.Metrics,
	}
}

// Open opens (creating if necessary) the tree in opt.Dir, recovering its
// committed state from the manifest (or a verified directory scan when the
// manifest is torn or absent), replaying the live WAL tail, and starting
// the background flusher and compactor.
func Open(opt Options) (*Tree, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, fmt.Errorf("lsm: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: creating dir: %w", err)
	}
	t := &Tree{
		opt:           opt,
		mem:           newMemtable(1),
		stateC:        make(chan struct{}),
		flushC:        make(chan struct{}, 1),
		compactC:      make(chan struct{}, 1),
		done:          make(chan struct{}),
		flusherDone:   make(chan struct{}),
		compactorDone: make(chan struct{}),
	}

	start := time.Now()
	replayed, err := t.recoverState()
	if err != nil {
		return nil, err
	}
	if m := opt.Metrics; m != nil {
		m.RecoveryReplayed.Add(int64(replayed))
		m.RecoveryMillis.Add(time.Since(start).Milliseconds())
	}

	w, err := t.newSegment()
	if err != nil {
		t.abandonOpen()
		return nil, err
	}
	t.wal = w

	go t.flusher()
	go t.compactor()
	if len(t.runs) > t.opt.MaxRuns {
		t.kick(t.compactC)
	}
	return t, nil
}

// dropDebris removes a file Open has proven unreferenced. Every startup
// deletion — interrupted-write temp files, orphaned runs, retired WAL
// segments, empty staged segments — funnels through here, so the sweep
// policy (idempotent: a file already gone is fine) lives in one place.
func dropDebris(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// sweepTemps deletes crash debris from interrupted atomic-rename writes:
// flush and merge run temps (both match run-*.lsm.tmp — merge outputs are
// runs too) and manifest snapshot temps. Every temp is unreferenced by
// construction, because state only ever learns a file's name after its
// rename succeeded.
func sweepTemps(dir string) error {
	for _, pat := range []string{"run-*.lsm.tmp", "MANIFEST-*.tmp"} {
		tmps, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return err
		}
		for _, p := range tmps {
			if err := dropDebris(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// fileSeqOf extracts the numeric sequence from a run or WAL segment base
// name ("run-000007m.lsm" → 7, "wal-000012.log" → 12).
func fileSeqOf(base, format string) int {
	var seq int
	fmt.Sscanf(base, format, &seq)
	return seq
}

// recoverState rebuilds the tree from disk: sweep temp debris, load the
// manifest (falling back to a verified directory scan when it is torn,
// malformed, or absent), open the committed runs, delete orphaned runs and
// retired segments, replay the live WAL tail into the recovery memtable,
// and cap it all with a fresh snapshot manifest. Returns the number of WAL
// records replayed. On error everything opened so far is closed and every
// file is left where the next attempt needs it.
func (t *Tree) recoverState() (int, error) {
	dir := t.opt.Dir
	if err := sweepTemps(dir); err != nil {
		return 0, err
	}

	st, manSeq, manOK, err := loadManifest(dir)
	if err != nil {
		return 0, err
	}
	// Generations strictly below the loaded one are never consulted again
	// (recovery uses the newest manifest or the scan, never an older
	// file); sweep them so lazy open-time snapshots cannot accumulate.
	manNames, err := filepath.Glob(filepath.Join(dir, "MANIFEST-*"))
	if err != nil {
		return 0, err
	}
	for _, p := range manNames {
		if seq, isMan := manifestSeq(filepath.Base(p)); isMan && seq < manSeq {
			if err := dropDebris(p); err != nil {
				return 0, err
			}
		}
	}

	// Every segment present, ascending. walSeq advances past all of them —
	// including ones deleted below — so segment numbers are never reused.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return 0, err
	}
	sort.Strings(segs)
	for _, seg := range segs {
		if seq := fileSeqOf(filepath.Base(seg), "wal-%06d.log"); seq > t.walSeq {
			t.walSeq = seq
		}
	}

	fail := func(err error) (int, error) {
		t.abandonOpen()
		return 0, err
	}

	runFiles, err := filepath.Glob(filepath.Join(dir, "run-*.lsm"))
	if err != nil {
		return 0, err
	}
	for _, name := range runFiles {
		if seq := fileSeqOf(filepath.Base(name), "run-%06d"); seq > t.seq {
			t.seq = seq
		}
	}

	if manOK {
		// The manifest names the exact committed run set, newest first. A
		// listed run that is missing is real data loss — fail loudly rather
		// than silently narrowing the database to whatever files remain.
		listed := make(map[string]bool, len(st.runs))
		for _, name := range st.runs {
			listed[name] = true
			r, err := openRun(filepath.Join(dir, name), t.runCfg())
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					return fail(fmt.Errorf("lsm: %s lists run %s but the file is missing — refusing to open with lost data: %w",
						manifestName(manSeq), name, err))
				}
				return fail(err)
			}
			t.runs = append(t.runs, r)
		}
		// Runs on disk but not in the manifest were published without their
		// commit record (a crash between the rename and the manifest
		// append). Their records are still covered — by WAL segments above
		// the floor for flush orphans, by the surviving inputs for merge
		// orphans — so they are debris, not data.
		for _, name := range runFiles {
			if !listed[filepath.Base(name)] {
				if err := dropDebris(name); err != nil {
					return fail(err)
				}
			}
		}
		// Segments at or below the floor were retired by a committed flush;
		// only their unlink was lost. Replaying them would double-apply
		// stale values over newer merged data — delete, never replay.
		live := segs[:0]
		for _, seg := range segs {
			if fileSeqOf(filepath.Base(seg), "wal-%06d.log") <= st.floor {
				if err := dropDebris(seg); err != nil {
					return fail(err)
				}
				continue
			}
			live = append(live, seg)
		}
		segs = live
	} else {
		// Verified directory scan: name order gives recency (merge outputs
		// carry their newest input's name plus "m"), every run is opened
		// with its trailer, index, and bloom filter validated, and every
		// present segment replays. Correct even for debris the manifest
		// protocol leaves: an uncommitted merge output shadows its intact
		// inputs, and an uncommitted flushed run is re-shadowed by replaying
		// the very segments it covers.
		sort.Sort(sort.Reverse(sort.StringSlice(runFiles)))
		for _, name := range runFiles {
			r, err := openRun(name, t.runCfg())
			if err != nil {
				return fail(err)
			}
			t.runs = append(t.runs, r)
		}
	}

	// Replay the live tail, oldest first, into the recovery memtable. The
	// replayed files back that memtable until its flush commits. A segment
	// that yields no records (the active segment after a clean close, a
	// staged segment that lost its rotation race) is debris: nothing
	// references it, so it is swept here rather than replayed forever.
	replayed := 0
	var kept []string
	for _, seg := range segs {
		n := 0
		err := replayWAL(seg, func(kind walRecordKind, key, value []byte) error {
			if h := t.opt.FaultHook; h != nil {
				if err := h("recover:replay"); err != nil {
					return err
				}
			}
			t.mem.put(key, value, kind == walDelete)
			n++
			return nil
		})
		if err != nil {
			return fail(err)
		}
		if n == 0 {
			if err := dropDebris(seg); err != nil {
				return fail(err)
			}
			continue
		}
		replayed += n
		kept = append(kept, seg)
	}
	t.memSegs = kept

	// Cap recovery with a fresh snapshot manifest: the floor sits just
	// below the oldest segment still owed a replay (everything older is
	// durable in runs), and older manifest generations are swept.
	floor := t.walSeq
	if len(kept) > 0 {
		floor = fileSeqOf(filepath.Base(kept[0]), "wal-%06d.log") - 1
	}
	names := make([]string, len(t.runs))
	for i, r := range t.runs {
		names[i] = filepath.Base(r.path)
	}
	man, err := newManifest(dir, manSeq+1, names, floor, t.opt.FaultHook, t.opt.Metrics)
	if err != nil {
		return fail(err)
	}
	t.man = man
	return replayed, nil
}

// abandonOpen tears down a partially opened tree after a recovery or
// bootstrap failure, so error paths never leak file handles.
func (t *Tree) abandonOpen() {
	for _, r := range t.runs {
		_ = r.release()
	}
	t.runs = nil
	if t.man != nil {
		_ = t.man.close()
		t.man = nil
	}
}

// newSegment opens the next WAL segment file. Callers hold t.mu (or, in
// Open, have exclusive access).
func (t *Tree) newSegment() (*wal, error) {
	t.walSeq++
	path := filepath.Join(t.opt.Dir, fmt.Sprintf("wal-%06d.log", t.walSeq))
	return openWAL(path, t.opt.SyncWAL, t.opt.FaultHook, t.opt.Metrics)
}

// kick nudges a background worker without blocking; a pending kick is
// enough, the workers drain all available work per wakeup.
func (t *Tree) kick(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// bumpLocked publishes a state transition: everyone blocked in waitState
// wakes and re-checks. Callers hold t.mu.
func (t *Tree) bumpLocked() {
	close(t.stateC)
	t.stateC = make(chan struct{})
}

// waitState blocks until the state channel captured under the lock is
// closed (some transition happened) or the tree is shutting down. Called
// with t.mu released.
func (t *Tree) waitState(ch <-chan struct{}) {
	select {
	case <-ch:
	case <-t.done:
	}
}

// Put inserts or replaces key with value. It is a one-entry batch: the
// tree copies key and value, so the caller keeps ownership of both.
func (t *Tree) Put(key, value []byte) error {
	return t.applyOne(walPut, key, value)
}

// Delete removes key (by writing a tombstone).
func (t *Tree) Delete(key []byte) error {
	return t.applyOne(walDelete, key, nil)
}

func (t *Tree) applyOne(kind walRecordKind, key, value []byte) error {
	op := batchOp{kind: kind, key: append([]byte(nil), key...), value: append([]byte(nil), value...)}
	return t.ApplyBatch(&Batch{ops: []batchOp{op}})
}

// ApplyBatch applies every operation in b under a single lock acquisition:
// one composite WAL record (one CRC) followed by a sorted skiplist insertion
// that reuses the predecessor search across adjacent keys. Per
// Options.SyncWAL the batch owes at most one fsync — group commit — which
// runs after the lock is released, so durability waits never stall readers.
// A batch may therefore be visible to readers before it is durable; the
// caller must not ack until ApplyBatch returns nil. If the segment the
// batch landed in was retired by a background flush meanwhile, the batch is
// durable in a run file and the fsync succeeds vacuously. Operations land
// in the memtable with the same last-writer-wins outcome as applying them
// in order.
//
// The tree takes ownership of the batch's key and value slices (see Batch);
// the Batch itself may be Reset and reused once ApplyBatch returns.
func (t *Tree) ApplyBatch(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	w, syncDue, err := t.applyBatchLocked(b)
	if err != nil {
		return err
	}
	if syncDue {
		return w.fsync()
	}
	return nil
}

// applyBatchLocked is the under-lock half of ApplyBatch: it admits the
// write (rotating or stalling per admitLocked), appends to the WAL, and
// updates the memtable, reporting the segment the batch landed in and
// whether the caller owes the group-commit fsync once the lock is released.
func (t *Tree) applyBatchLocked(b *Batch) (w *wal, syncDue bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	stalled := false
	for {
		ch, err := t.admitLocked(&stalled)
		if err != nil {
			return nil, false, err
		}
		if ch == nil {
			break
		}
		t.mu.Unlock()
		t.waitState(ch)
		t.mu.Lock()
	}
	if err := t.wal.appendBatch(b.ops); err != nil {
		return nil, false, err
	}
	t.mem.putBatch(b.ops)
	syncDue, err = t.wal.flushDue()
	if err != nil {
		return nil, false, err
	}
	return t.wal, syncDue, nil
}

// admitLocked gates one mutation. While the memtable is at its threshold it
// rotates — or, when MaxImmutables flushes are already queued, asks the
// caller to stall by returning the state channel to wait on (with t.mu
// *released*) before retrying. This is the tree's entire backpressure
// story: a writer waits at most for flushes already in flight, never for
// its own write's disk I/O, and readers are never blocked because no lock
// is held while waiting. stalled dedups the stall accounting to one
// episode per admitted write, however many retries it takes.
func (t *Tree) admitLocked(stalled *bool) (<-chan struct{}, error) {
	if t.closed {
		return nil, errClosed()
	}
	if t.bgErr != nil {
		return nil, t.bgErr
	}
	if t.mem.size() < t.opt.MemtableBytes {
		return nil, nil
	}
	if len(t.imms) < t.opt.MaxImmutables {
		return nil, t.rotateLocked()
	}
	if !*stalled {
		*stalled = true
		t.stalls++
		if m := t.opt.Metrics; m != nil {
			m.WriteStalls.Add(1)
		}
	}
	return t.stateC, nil
}

// rotateLocked freezes the current memtable (with its WAL segment) onto the
// immutable queue and installs a fresh memtable over a new segment. The new
// segment is opened first so a failure leaves the tree unchanged. Callers
// hold t.mu and have verified queue space.
func (t *Tree) rotateLocked() error {
	var nw *wal
	if t.nextWAL != nil {
		nw = t.nextWAL
		t.nextWAL = nil
		t.walSeq++ // consume the staged segment's number
	} else {
		var err error
		nw, err = t.newSegment()
		if err != nil {
			return err
		}
	}
	if err := t.wal.seal(); err != nil {
		_ = nw.close()
		return err
	}
	t.seq++
	task := &flushTask{mem: t.mem, wal: t.wal, segs: t.memSegs, seq: t.seq}
	t.imms = append([]*flushTask{task}, t.imms...)
	t.mem = newMemtable(int64(t.walSeq))
	t.wal = nw
	t.memSegs = nil
	t.bumpLocked()
	t.kick(t.flushC)
	return nil
}

// snapshot captures a consistent view of the tree — mutable memtable,
// frozen immutables (newest first), and retained runs — under a brief read
// lock. All disk reads happen against the snapshot with no tree lock held;
// release must be called when done so merged-away runs can be deleted.
type snapshot struct {
	mems []*memtable // newest first: mutable, then immutables
	runs []*run      // newest first, retained
}

func (t *Tree) snapshot() (*snapshot, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return nil, errClosed()
	}
	s := &snapshot{
		mems: make([]*memtable, 0, 1+len(t.imms)),
		runs: append([]*run(nil), t.runs...),
	}
	s.mems = append(s.mems, t.mem)
	for _, task := range t.imms {
		s.mems = append(s.mems, task.mem)
	}
	for _, r := range s.runs {
		r.retain()
	}
	return s, nil
}

func (s *snapshot) release() {
	for _, r := range s.runs {
		_ = r.release()
	}
}

// Get returns the value for key, or ok=false if absent or deleted.
//
// The memtable probes run under the tree read lock (pure in-memory, no
// blocking); only on a memory miss are the runs retained so the disk
// lookups can proceed with no tree lock held.
func (t *Tree) Get(key []byte) (value []byte, ok bool, err error) {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return nil, false, errClosed()
	}
	if e, found := t.mem.get(key); found {
		t.mu.RUnlock()
		if e.tombstone {
			return nil, false, nil
		}
		return append([]byte(nil), e.value...), true, nil
	}
	for _, task := range t.imms {
		if e, found := task.mem.get(key); found {
			t.mu.RUnlock()
			if e.tombstone {
				return nil, false, nil
			}
			return append([]byte(nil), e.value...), true, nil
		}
	}
	runs := append([]*run(nil), t.runs...)
	for _, r := range runs {
		r.retain()
	}
	t.mu.RUnlock()
	defer func() {
		for _, r := range runs {
			_ = r.release()
		}
	}()
	for _, r := range runs {
		e, found, err := r.get(key)
		if err != nil {
			return nil, false, err
		}
		if found {
			if e.tombstone {
				return nil, false, nil
			}
			// e.value aliases (possibly cache-resident) block memory shared
			// with other readers; hand the caller its own copy.
			return append([]byte(nil), e.value...), true, nil
		}
	}
	return nil, false, nil
}

// Scan invokes fn for every live key in [from, to) in key order; a nil to
// means unbounded. fn returning false stops the scan early. The scan runs
// against a snapshot: rotations and merges during the scan are invisible,
// and no tree lock is held across fn or any disk read. Mutations racing
// the scan in the still-mutable memtable may or may not be observed.
func (t *Tree) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	s, err := t.snapshot()
	if err != nil {
		return err
	}
	defer s.release()
	it := s.mergedIter(from)
	for it.valid() {
		e, err := it.curr()
		if err != nil {
			return err
		}
		if to != nil && bytes.Compare(e.key, to) >= 0 {
			return nil
		}
		if !e.tombstone {
			if !fn(e.key, e.value) {
				return nil
			}
		}
		it.next()
	}
	// A run iterator that hit a read error goes invalid exactly like an
	// exhausted one; surface it rather than silently truncating the scan.
	return it.fail()
}

// Len reports the number of live keys (scans everything; intended for tests
// and small trees).
func (t *Tree) Len() (int, error) {
	n := 0
	err := t.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// Flush rotates the memtable (if non-empty) and waits until the background
// pipeline has drained: no queued immutables, no flush awaiting its
// manifest commit or segment retirement, and no compaction debt. It is the
// synchronous checkpoint operation — after a nil return every record
// accepted before the call is in a committed run file and its WAL segments
// are gone.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed {
			return errClosed()
		}
		if t.bgErr != nil {
			return t.bgErr
		}
		if t.mem.len() > 0 {
			if len(t.imms) < t.opt.MaxImmutables {
				if err := t.rotateLocked(); err != nil {
					return err
				}
				continue
			}
		} else if len(t.imms) == 0 && t.retiring == 0 {
			if len(t.runs) <= t.opt.MaxRuns {
				return nil
			}
			t.kick(t.compactC)
		} else {
			t.kick(t.flushC)
		}
		ch := t.stateC
		t.mu.Unlock()
		t.waitState(ch)
		t.mu.Lock()
	}
}

// Merge forces a full merge of all disk runs into one and waits for it.
func (t *Tree) Merge() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errClosed()
	}
	if t.bgErr != nil {
		return t.bgErr
	}
	if len(t.runs) <= 1 {
		return nil
	}
	t.forceCompact = true
	t.kick(t.compactC)
	target := t.merges + 1
	for t.merges < target {
		if t.closed {
			return errClosed()
		}
		if t.bgErr != nil {
			return t.bgErr
		}
		if len(t.runs) <= 1 {
			return nil
		}
		ch := t.stateC
		t.mu.Unlock()
		t.waitState(ch)
		t.mu.Lock()
	}
	return nil
}

// wedge records a non-retryable background failure: the tree stops
// accepting mutations (reads keep working) and the on-disk state stays
// crash-consistent for the next Open.
func (t *Tree) wedge(err error) {
	t.mu.Lock()
	if t.bgErr == nil {
		t.bgErr = fmt.Errorf("lsm: background pipeline failed: %w", err)
	}
	t.bumpLocked()
	t.mu.Unlock()
}

// flusher drains the immutable queue, writing the whole backlog to one run
// file per pass and retiring the WAL segments once the run is durable.
// Group flush is what lets the drain rate scale with the queue depth: the
// run fsync — the dominant flush cost — is paid once per pass, not once
// per memtable, so a burst of rotations amortizes to a single sync.
// Segments are retired strictly oldest first (wedging on the first retire
// failure), which keeps reopen-time replay correct: a segment is only ever
// deleted after every older segment's deletion succeeded.
func (t *Tree) flusher() {
	defer close(t.flusherDone)
	for {
		select {
		case <-t.done:
			return
		case <-t.flushC:
		}
		for {
			t.prepSegment()
			tasks := t.pendingTasks()
			if len(tasks) == 0 {
				break
			}
			if err := t.flushTasks(tasks); err != nil {
				if errors.Is(err, ErrInjected) {
					// Transient: retry the same batch after a beat.
					select {
					case <-t.done:
						return
					case <-time.After(flushRetryDelay):
					}
					continue
				}
				t.wedge(err)
				break
			}
		}
	}
}

// prepSegment stages a pre-opened WAL segment for the next rotation, with
// the file creation done off the tree lock. Only the flusher calls it (a
// single staging producer), every rotation kicks the flusher, and the
// fallback path in rotateLocked opens inline — so staging is purely a
// latency optimization with no correctness weight. Open errors are
// swallowed here for the same reason: the rotation will retry inline and
// surface them to the writer.
func (t *Tree) prepSegment() {
	t.mu.RLock()
	if t.closed || t.bgErr != nil || t.nextWAL != nil {
		t.mu.RUnlock()
		return
	}
	seq := t.walSeq + 1
	t.mu.RUnlock()
	path := filepath.Join(t.opt.Dir, fmt.Sprintf("wal-%06d.log", seq))
	w, err := openWAL(path, t.opt.SyncWAL, t.opt.FaultHook, t.opt.Metrics)
	if err != nil {
		return
	}
	t.mu.Lock()
	if !t.closed && t.bgErr == nil && t.nextWAL == nil && t.walSeq+1 == seq {
		t.nextWAL = w
		t.mu.Unlock()
		return
	}
	claimed := t.walSeq >= seq
	t.mu.Unlock()
	if claimed {
		// A rotation opened this segment number inline while we raced: the
		// path now belongs to a live wal, so only close our spare handle —
		// removing the file would pull it out from under the writer.
		_ = w.close()
		return
	}
	// Tree closing or wedged with the number unclaimed: drop the stray file.
	_ = w.discard()
}

// pendingTasks snapshots the queued immutables, oldest first.
func (t *Tree) pendingTasks() []*flushTask {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed || t.bgErr != nil || len(t.imms) == 0 {
		return nil
	}
	tasks := make([]*flushTask, 0, len(t.imms))
	for i := len(t.imms) - 1; i >= 0; i-- {
		tasks = append(tasks, t.imms[i])
	}
	return tasks
}

// flushTasks writes the batch of frozen memtables (oldest first) to a
// single run file, publishes it, and retires every covered WAL segment.
// Duplicate keys across the batch resolve newest-wins via the same merged
// iterator reads use; the run takes the newest memtable's sequence number
// (skipped numbers never become files, which is harmless — only relative
// order matters). The run write happens with no tree lock held; only the
// publish step takes it.
func (t *Tree) flushTasks(tasks []*flushTask) error {
	newest := tasks[len(tasks)-1]
	path := filepath.Join(t.opt.Dir, fmt.Sprintf("run-%06d.lsm", newest.seq))
	hint := 0
	mi := &mergedIter{}
	for i := len(tasks) - 1; i >= 0; i-- { // newest first, as reads order them
		hint += tasks[i].mem.len()
		mi.memIts = append(mi.memIts, tasks[i].mem.iter(nil))
	}
	rw, err := newRunWriter(path, hint, t.runCfg())
	if err != nil {
		return err
	}
	flushed := 0
	for ; mi.valid(); mi.next() {
		e, err := mi.curr()
		if err != nil {
			_ = rw.abort()
			return err
		}
		if err := rw.add(e); err != nil {
			_ = rw.abort()
			return err
		}
		flushed++
	}
	// Fault point: fail (or crash) after the run bytes are written but
	// before the rename publishes them — the most interesting instant for
	// recovery, since the WAL segments must still carry every record.
	if h := t.opt.FaultHook; h != nil {
		if err := h("flush:bg"); err != nil {
			if errors.Is(err, ErrTornWrite) {
				// Crash debris: keep the temp file; Open sweeps it.
				_ = rw.w.Flush()
				_ = rw.f.Close()
				return err
			}
			_ = rw.abort()
			return err
		}
	}
	r, err := rw.finish()
	if err != nil {
		return err
	}

	t.mu.Lock()
	t.runs = append([]*run{r}, t.runs...)
	// Rotations may have prepended newer tasks while the batch flushed;
	// the flushed tasks are exactly the oldest len(tasks) entries.
	t.imms = t.imms[:len(t.imms)-len(tasks)]
	t.retiring++
	t.flushes++
	if m := t.opt.Metrics; m != nil {
		m.Flushes.Add(1)
		m.FlushedEntries.Add(int64(flushed))
	}
	debt := len(t.runs) > t.opt.MaxRuns
	t.bumpLocked()
	t.mu.Unlock()

	// Commit before destroying: one fsynced manifest record names the run
	// and advances the WAL floor to the newest flushed segment, and only
	// then may segment files be deleted. Reversing the order opens the two
	// classic crash windows — deleting first loses records if the run's
	// rename was not yet durable; recording retirement after deleting is
	// fine, but deleting after a crash wiped the record would leave a
	// retired segment to replay stale values over newer merged data. A
	// manifest failure wedges the tree rather than retrying: the run is
	// already published, and re-running the whole flush would publish it
	// twice — hence %v (not %w), deliberately severing the errors.Is chain
	// to ErrInjected that the flusher's retry loop checks.
	if err := t.man.commitFlush(filepath.Base(path), newest.wal.seq); err != nil {
		return fmt.Errorf("lsm: flush published but not committed: %v", err)
	}

	// The run is durable, published, and committed: retire the WAL
	// segments, oldest first across the whole batch. Any failure wedges
	// the tree (via the caller), which guarantees no younger segment is
	// ever deleted after a skipped older one — the invariant replay
	// ordering depends on.
	for _, task := range tasks {
		for _, seg := range task.segs {
			if err := os.Remove(seg); err != nil {
				return err
			}
		}
		if err := task.wal.discard(); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.retiring--
	t.bumpLocked()
	t.mu.Unlock()
	if debt {
		t.kick(t.compactC)
	}
	return nil
}

// compactor runs the tiered merge in the background: when the run count
// exceeds MaxRuns (or Merge forces it), every current run is streamed
// through the k-way merge writer into one replacement run. Input files are
// deleted oldest-first, each only after its last reader releases it.
func (t *Tree) compactor() {
	defer close(t.compactorDone)
	for {
		select {
		case <-t.done:
			return
		case <-t.compactC:
		}
		for {
			did, err := t.compactOnce()
			if err != nil {
				if errors.Is(err, ErrInjected) {
					select {
					case <-t.done:
						return
					case <-time.After(flushRetryDelay):
					}
					continue
				}
				t.wedge(err)
				break
			}
			if !did {
				break
			}
		}
	}
}

// mergedName derives the output name for a merge from its newest input:
// the "m" suffix sorts the output lexicographically *after* that input
// (newer, correctly shadowing all inputs on reopen) but *before* the next
// flushed run's higher sequence number (older than any memtable rotated
// after the merge began). This keeps reopen order correct even when the
// merge races concurrent flushes, with no shared sequence to coordinate.
func mergedName(newestInput string) string {
	return strings.TrimSuffix(newestInput, ".lsm") + "m.lsm"
}

func (t *Tree) compactOnce() (bool, error) {
	t.mu.Lock()
	if t.closed || t.bgErr != nil || len(t.runs) <= 1 ||
		(len(t.runs) <= t.opt.MaxRuns && !t.forceCompact) {
		t.mu.Unlock()
		return false, nil
	}
	inputs := append([]*run(nil), t.runs...)
	for _, r := range inputs {
		r.retain()
	}
	t.mu.Unlock()

	var hook func() error
	if h := t.opt.FaultHook; h != nil {
		hook = func() error { return h("merge:bg") }
	}
	nr, err := mergeRuns(mergedName(inputs[0].path), inputs, hook, t.runCfg())
	if err != nil {
		for _, r := range inputs {
			_ = r.release()
		}
		return false, err
	}

	t.mu.Lock()
	// Flushes may have prepended newer runs while the merge ran; the
	// inputs are exactly the tail of the published list.
	t.runs = append(t.runs[:len(t.runs)-len(inputs):len(t.runs)-len(inputs)], nr)
	t.merges++
	t.forceCompact = false
	if m := t.opt.Metrics; m != nil {
		m.Merges.Add(1)
	}
	debt := len(t.runs) > t.opt.MaxRuns
	t.bumpLocked()
	t.mu.Unlock()

	// Commit the merge before any input file is deleted: the fsynced
	// record swaps the inputs for the output in the durable run set. As in
	// flushTasks, a commit failure must wedge rather than retry (%v severs
	// ErrInjected) — the output is already published.
	inputNames := make([]string, len(inputs))
	for i, r := range inputs {
		inputNames[i] = filepath.Base(r.path)
	}
	if err := t.man.commitMerge(filepath.Base(nr.path), inputNames); err != nil {
		for _, r := range inputs {
			_ = r.release() // snapshot reference
			_ = r.release() // published list's reference
		}
		return false, fmt.Errorf("lsm: merge published but not committed: %v", err)
	}

	// Drop the list's and our snapshot's references, then delete input
	// files oldest-first, each once its last reader is gone. Oldest-first
	// matters across a crash: a surviving newer input still carries the
	// tombstones that mask deleted keys in older ones. If the tree closes
	// mid-wait the remaining files stay on disk — the committed output
	// shadows them and the next Open sweeps them as orphans, so the state
	// is merely larger, never wrong.
	for _, r := range inputs {
		_ = r.release() // snapshot reference
		_ = r.release() // published list's reference
	}
	for i := len(inputs) - 1; i >= 0; i-- {
		select {
		case <-inputs[i].unused:
		case <-t.done:
			return false, nil
		}
		if err := os.Remove(inputs[i].path); err != nil {
			return false, err
		}
	}
	return !debtFree(debt), nil
}

// debtFree is a readability helper: compactOnce returns "keep going" when
// the published list still exceeds MaxRuns after this merge.
func debtFree(debt bool) bool { return !debt }

// Stats returns the tree's component statistics.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{
		MemtableEntries: t.mem.len(),
		MemtableBytes:   t.mem.size(),
		Immutables:      len(t.imms),
		Runs:            len(t.runs),
		Flushes:         t.flushes,
		Merges:          t.merges,
		WriteStalls:     t.stalls,
	}
	for _, task := range t.imms {
		s.MemtableEntries += task.mem.len()
		s.MemtableBytes += task.mem.size()
	}
	for _, r := range t.runs {
		s.RunEntries += r.len()
	}
	if d := len(t.runs) - t.opt.MaxRuns; d > 0 {
		s.CompactionDebt = d
	}
	return s
}

// Close stops the background pipeline, flushes WAL buffers, and releases
// file handles. Queued immutables are not flushed — their WAL segments
// stay on disk and the next Open replays them, exactly as after a crash.
// The tree is unusable afterwards.
func (t *Tree) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.bumpLocked()
	t.mu.Unlock()

	close(t.done)
	<-t.flusherDone
	<-t.compactorDone

	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	if t.nextWAL != nil {
		// Staged but never used: remove the empty segment file.
		if err := t.nextWAL.discard(); err != nil {
			first = err
		}
		t.nextWAL = nil
	}
	if err := t.wal.close(); err != nil {
		first = err
	}
	for _, task := range t.imms {
		if err := task.wal.close(); err != nil && first == nil {
			first = err
		}
	}
	for _, r := range t.runs {
		if err := r.release(); err != nil && first == nil {
			first = err
		}
	}
	t.runs = nil
	if t.man != nil {
		if err := t.man.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// mergedIter merges memtable iterators (newest first: mutable, then
// immutables) with run iterators (newest first), deduplicating keys —
// the newest component's version wins.
type mergedIter struct {
	memIts []*memtableIter
	runIts []*runIter
}

// mergedIter builds the snapshot's k-way merge iterator from key >= from.
func (s *snapshot) mergedIter(from []byte) *mergedIter {
	mi := &mergedIter{}
	for _, m := range s.mems {
		mi.memIts = append(mi.memIts, m.iter(from))
	}
	for _, r := range s.runs {
		mi.runIts = append(mi.runIts, r.iter(from))
	}
	return mi
}

func (m *mergedIter) valid() bool {
	for _, it := range m.memIts {
		if it.valid() {
			return true
		}
	}
	for _, it := range m.runIts {
		if it.valid() {
			return true
		}
	}
	return false
}

// smallest returns the minimal key across live iterators and which
// iterator holds the winning (newest) version: memtables beat runs, and
// within each group the earlier (newer) iterator wins ties. found
// distinguishes exhaustion from a live empty key (stored as nil).
func (m *mergedIter) smallest() (key []byte, memIdx, runIdx int, found bool) {
	memIdx, runIdx = -1, -1
	for i, it := range m.memIts {
		if !it.valid() {
			continue
		}
		if !found || bytes.Compare(it.key(), key) < 0 {
			key = it.key()
			memIdx = i
			found = true
		}
	}
	for i, it := range m.runIts {
		if !it.valid() {
			continue
		}
		if !found || bytes.Compare(it.key(), key) < 0 {
			key = it.key()
			memIdx = -1
			runIdx = i
			found = true
		}
	}
	return key, memIdx, runIdx, found
}

func (m *mergedIter) curr() (entry, error) {
	_, memIdx, runIdx, found := m.smallest()
	if !found {
		return entry{}, fmt.Errorf("lsm: curr on exhausted iterator")
	}
	if memIdx >= 0 {
		return m.memIts[memIdx].curr(), nil
	}
	return m.runIts[runIdx].curr()
}

// fail reports the first sticky error across the run iterators; loops that
// drain a mergedIter must check it after exhaustion.
func (m *mergedIter) fail() error {
	for _, it := range m.runIts {
		if err := it.fail(); err != nil {
			return err
		}
	}
	return nil
}

// next advances every iterator past the current smallest key, discarding
// the older versions it shadowed.
func (m *mergedIter) next() {
	key, _, _, found := m.smallest()
	if !found {
		return
	}
	for _, it := range m.memIts {
		for it.valid() && bytes.Equal(it.key(), key) {
			it.next()
		}
	}
	for _, it := range m.runIts {
		for it.valid() && bytes.Equal(it.key(), key) {
			it.next()
		}
	}
}
