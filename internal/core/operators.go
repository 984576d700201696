package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/storage"
)

// governorOf fetches the node-local ingestion governor from a task context;
// nil when the embedding instance runs ungoverned.
func governorOf(ctx *hyracks.TaskContext) *governor.Governor {
	g, _ := ctx.Service(governor.ServiceName).(*governor.Governor)
	return g
}

func osMkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// defaultFlushInterval bounds how long a partially filled frame sits in a
// collect buffer before being pushed out, so low-rate feeds stay live.
const defaultFlushInterval = 10 * time.Millisecond

// ---------------------------------------------------------------------------
// FeedCollect: the head-section operator. Each instance houses one adaptor
// instance, manages its lifecycle, and deposits the parsed records into its
// feed joint (§5.3.1). The head job consists solely of collect instances
// (the paper pairs them with a no-op NullSink; here the joint is the only
// output).

type collectOp struct {
	signature string
	adaptor   ConfiguredAdaptor
	frameCap  int
	// onFatal reports adaptor give-up to the Central Feed Manager.
	onFatal func(error)
}

// Name implements hyracks.OperatorDescriptor.
func (o *collectOp) Name() string { return "FeedCollect(" + o.signature + ")" }

// CreateRuntime implements hyracks.OperatorDescriptor.
func (o *collectOp) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	return &collectRuntime{op: o, ctx: ctx, out: out}, nil
}

type collectRuntime struct {
	op  *collectOp
	ctx *hyracks.TaskContext
	out hyracks.Writer
}

func (r *collectRuntime) Open() error                    { return r.out.Open() }
func (r *collectRuntime) NextFrame(*hyracks.Frame) error { return errors.New("collect is a source") }
func (r *collectRuntime) Close() error                   { return r.out.Close() }
func (r *collectRuntime) Fail(err error)                 { r.out.Fail(err) }

// Run implements hyracks.SourceRuntime.
func (r *collectRuntime) Run() error {
	defer r.out.Close()
	fm, err := feedManagerOf(r.ctx)
	if err != nil {
		return err
	}
	joint := fm.CreateJoint(r.op.signature, r.ctx.Partition)

	// Defer adaptor creation until the output is requested (§5.3.1).
	if !joint.WaitForSubscriber(r.ctx.Canceled) {
		return nil
	}
	adaptor, err := r.op.adaptor.NewInstance(r.ctx.Partition)
	if err != nil {
		return fmt.Errorf("core: creating adaptor instance %d: %w", r.ctx.Partition, err)
	}

	sink := newBatchingSink(joint, r.frameCap(), defaultFlushInterval, r.ctx.Canceled)
	if g := governorOf(r.ctx); g != nil {
		// The head gate: deposits block while the node is over budget and
		// a non-lossy subscriber is attached. The class is refreshed per
		// deposit from the joint's subscribers.
		sink.adm = g.Admission("head:"+r.op.signature, governor.ClassNormal)
	}
	defer sink.stop()
	if err := adaptor.Start(sink, r.ctx.Canceled); err != nil {
		// The adaptor found reconnection futile: the feed ends (§6.2.3).
		if r.op.onFatal != nil {
			r.op.onFatal(err)
		}
		return err
	}
	return nil
}

func (r *collectRuntime) frameCap() int {
	if r.op.frameCap > 0 {
		return r.op.frameCap
	}
	return 128
}

// batchingSink batches emitted records into frames and deposits them into a
// joint, flushing on size or on a timer.
type batchingSink struct {
	joint    *Joint
	cap      int
	mu       sync.Mutex
	buf      *hyracks.Frame
	stopCh   chan struct{}
	stopOnce sync.Once
	canceled <-chan struct{}
	// adm, when set, gates deposits through the node governor: while the
	// node is over budget and the joint has a non-lossy subscriber, the
	// sink blocks (slowing the adaptor) instead of growing the backlog.
	adm *governor.Admission
	// Frames are numbered as they are cut from buf (cut) and deposited
	// strictly in that order (deposited is the last one done), so a frame
	// the timer cut can never be overtaken by a later full one — which
	// would apply an older version of a key last. A depositor waits for
	// its turn on turnC, closed and renewed after every deposit; mu is
	// never held across the deposit, which may block in the head gate.
	cut, deposited uint64
	turnC          chan struct{}
}

func newBatchingSink(joint *Joint, frameCap int, flushEvery time.Duration, canceled <-chan struct{}) *batchingSink {
	s := &batchingSink{
		joint:    joint,
		cap:      frameCap,
		buf:      hyracks.GetFrame(frameCap),
		stopCh:   make(chan struct{}),
		canceled: canceled,
		turnC:    make(chan struct{}),
	}
	go func() {
		t := time.NewTicker(flushEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.flush()
			case <-s.stopCh:
				return
			}
		}
	}()
	return s
}

// Emit implements RecordSink.
func (s *batchingSink) Emit(rec *adm.Record) error {
	select {
	case <-s.canceled:
		return fmt.Errorf("core: feed collect canceled")
	default:
	}
	s.mu.Lock()
	s.buf.Append(adm.Encode(rec))
	if s.buf.Len() < s.cap {
		s.mu.Unlock()
		return nil
	}
	out, turn := s.cutLocked()
	s.mu.Unlock()
	s.deposit(out, turn)
	return nil
}

func (s *batchingSink) flush() {
	s.mu.Lock()
	if s.buf.Len() == 0 {
		s.mu.Unlock()
		return
	}
	out, turn := s.cutLocked()
	s.mu.Unlock()
	s.deposit(out, turn)
}

// cutLocked takes the buffered frame, numbering it for deposit order.
func (s *batchingSink) cutLocked() (*hyracks.Frame, uint64) {
	out := s.buf
	s.buf = hyracks.GetFrame(s.cap)
	s.cut++
	return out, s.cut
}

// deposit hands one batched frame to the joint once every frame cut before
// it has been deposited, first passing the head gate. The gate only blocks
// when a non-lossy subscriber is attached — lossy subscribers shed refused
// frames themselves, and blocking the head would starve them of the frames
// their policy is supposed to drop. A cancel during the gate still
// deposits: the frame's records were emitted by the adaptor and must reach
// the parked subscription state.
func (s *batchingSink) deposit(out *hyracks.Frame, turn uint64) {
	s.awaitDeposited(turn - 1)
	if s.adm != nil {
		if cls, ok := s.joint.headClass(); ok {
			s.adm.SetClass(cls)
			s.adm.Wait(int64(out.Bytes()), int64(out.Len()), s.canceled)
		}
	}
	if !s.joint.Deposit(out) {
		// No subscription kept the frame: recycle its header.
		hyracks.PutFrame(out)
	}
	s.mu.Lock()
	s.deposited = turn
	close(s.turnC)
	s.turnC = make(chan struct{})
	s.mu.Unlock()
}

// awaitDeposited returns once frames 1..n have been deposited.
func (s *batchingSink) awaitDeposited(n uint64) {
	s.mu.Lock()
	for s.deposited < n {
		ch := s.turnC
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// stop ends the flush timer and deposits what is buffered. It returns only
// once every frame cut so far is in the joint, including one the timer may
// still be depositing, so no emitted record is dropped at teardown.
func (s *batchingSink) stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.flush()
	s.mu.Lock()
	cut := s.cut
	s.mu.Unlock()
	s.awaitDeposited(cut)
}

// ---------------------------------------------------------------------------
// FeedIntake: the first operator of a tail section. Each instance locates
// the co-located source joint through the local Feed Manager's search API,
// subscribes (or re-attaches after a failure), and pushes arriving frames
// downstream (§5.3.1). With at-least-once enabled it assigns tracking ids
// and retains payloads until acknowledged (§5.6).

type intakeOp struct {
	conn *Connection
	// fault is the manager's injection hook (Options.FaultHook); installed
	// on the subscription as its spill fault. Nil in production.
	fault func(point string) error
}

// Name implements hyracks.OperatorDescriptor.
func (o *intakeOp) Name() string { return "FeedIntake(" + o.conn.id + ")" }

// CreateRuntime implements hyracks.OperatorDescriptor.
func (o *intakeOp) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	return &intakeRuntime{op: o, ctx: ctx, out: out}, nil
}

type intakeRuntime struct {
	op  *intakeOp
	ctx *hyracks.TaskContext
	out hyracks.Writer
}

func (r *intakeRuntime) Open() error                    { return r.out.Open() }
func (r *intakeRuntime) NextFrame(*hyracks.Frame) error { return errors.New("intake is a source") }
func (r *intakeRuntime) Close() error                   { return r.out.Close() }
func (r *intakeRuntime) Fail(err error)                 { r.out.Fail(err) }

// Run implements hyracks.SourceRuntime.
func (r *intakeRuntime) Run() error {
	defer r.out.Close()
	conn := r.op.conn
	fm, err := feedManagerOf(r.ctx)
	if err != nil {
		return err
	}
	joint := fm.WaitJoint(conn.sourceSignature, r.ctx.Partition, r.ctx.Canceled)
	if joint == nil {
		return nil // canceled while waiting
	}
	spillPath := filepath.Join(spillDir(r.ctx), fmt.Sprintf("%s-p%d.spill", sanitize(conn.subID), r.ctx.Partition))
	sub, err := joint.Subscribe(conn.subID, conn.pol, spillPath)
	if err != nil {
		return err
	}
	sub.SetLatencyRecorder(conn.Metrics.IngestionLatency)
	if r.op.fault != nil {
		sub.SetSpillFault(r.op.fault)
	}
	if g := governorOf(r.ctx); g != nil {
		sub.SetAdmission(g.Admission("feed:"+conn.id, conn.pol.Priority))
	}

	// Pump subscription frames into a channel so the main loop can also
	// service replays and disconnect signals.
	frames := make(chan *hyracks.Frame)
	pumpDone := make(chan struct{})
	go func() {
		defer close(frames)
		for {
			f, ok := sub.Next(r.ctx.Canceled)
			if !ok {
				return
			}
			select {
			case frames <- f:
			case <-r.ctx.Canceled:
				// The frame is already out of the subscription queue but
				// not yet handed downstream: put it back so the adopted
				// subscription still holds it for the next intake.
				sub.requeue(f)
				return
			case <-pumpDone:
				sub.requeue(f)
				return
			}
		}
	}()
	defer close(pumpDone)

	// Watch for a graceful disconnect: unsubscribe so the subscription
	// drains its backlog and then reports closed.
	unsubDone := make(chan struct{})
	go func() {
		select {
		case <-conn.disconnecting:
			joint.Unsubscribe(conn.subID)
		case <-unsubDone:
		}
	}()
	defer close(unsubDone)

	var replay <-chan *hyracks.Frame
	if conn.tracker != nil {
		replay = conn.tracker.register(r.ctx.Partition)
	}

	for {
		select {
		case f, ok := <-frames:
			if !ok {
				// Upstream closed gracefully (disconnect drain, or the
				// adaptor's source is exhausted). Tracked records may still
				// be awaiting acknowledgment — closing the pipeline now
				// would orphan their replays and break at-least-once.
				return r.drainPendingReplays(replay)
			}
			out := f
			if conn.tracker != nil {
				out = hyracks.NewFrame(f.Len())
				for _, rec := range f.Records {
					id := conn.tracker.track(r.ctx.Partition, rec)
					out.Append(wrapTracked(id, rec))
				}
			}
			conn.Metrics.Collected.Add(int64(f.Len()))
			if err := r.out.NextFrame(out); err != nil {
				return nil
			}
		case f := <-replay:
			conn.Metrics.Replayed.Add(int64(f.Len()))
			if err := r.out.NextFrame(f); err != nil {
				return nil
			}
		case <-r.ctx.Canceled:
			return nil
		}
	}
}

// drainPendingReplays keeps the intake→store path open after the upstream
// source closed, servicing ack-timeout replays until no tracked record is
// pending. Without this, a record lost downstream (node death, dropped ack)
// near the end of the stream would be replayed into a pipeline that no
// longer exists and silently dropped once it exceeded its replay budget.
// Termination is bounded: every pending record is either acked or dropped
// by the sweeper after maxReplays attempts.
func (r *intakeRuntime) drainPendingReplays(replay <-chan *hyracks.Frame) error {
	conn := r.op.conn
	if conn.tracker == nil {
		return nil
	}
	for conn.tracker.pendingCount() > 0 {
		select {
		case f := <-replay:
			conn.Metrics.Replayed.Add(int64(f.Len()))
			if err := r.out.NextFrame(f); err != nil {
				return nil
			}
		case <-r.ctx.Canceled:
			return nil
		case <-time.After(5 * time.Millisecond):
			// Re-check: acks may have arrived, or another partition's
			// records may be the only ones left pending.
		}
	}
	return nil
}

func spillDir(ctx *hyracks.TaskContext) string {
	if sm, ok := ctx.Service(storage.ServiceName).(*storage.Manager); ok && sm != nil {
		dir := filepath.Join(sm.Dir(), "spill")
		if err := osMkdirAll(dir); err == nil {
			return dir
		}
	}
	return "."
}

func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch c {
		case '/', '\\', ':', '>', ' ':
			out[i] = '_'
		}
	}
	return string(out)
}

// ---------------------------------------------------------------------------
// Assign: the compute-stage operator. Each instance applies the UDF to every
// record inside the MetaFeed sandbox and offers its output through a feed
// joint so descendant feeds can subscribe (§5.3.2).

type assignOp struct {
	conn      *Connection
	fn        RecordFunction
	signature string
	last      bool // last compute stage feeds the connection's Computed counter
}

// Name implements hyracks.OperatorDescriptor.
func (o *assignOp) Name() string { return "Assign(" + o.signature + ")" }

// CreateRuntime implements hyracks.OperatorDescriptor.
func (o *assignOp) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	fm, err := feedManagerOf(ctx)
	if err != nil {
		return nil, err
	}
	return &assignRuntime{
		op:    o,
		ctx:   ctx,
		out:   out,
		joint: fm.CreateJoint(o.signature, ctx.Partition),
		mf:    newMetaFeed("assign:"+o.fn.Name(), ctx.NodeID, o.conn.pol, o.conn.Log),
	}, nil
}

type assignRuntime struct {
	op    *assignOp
	ctx   *hyracks.TaskContext
	out   hyracks.Writer
	joint *Joint
	mf    *metaFeed
}

func (r *assignRuntime) Open() error { return r.out.Open() }

func (r *assignRuntime) NextFrame(f *hyracks.Frame) error {
	if fc, ok := r.op.fn.(FrameCoster); ok {
		if d := fc.FrameDelay(f.Len()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.ctx.Canceled:
				return hyracks.ErrJobCanceled
			}
		}
	}
	out := hyracks.NewFrame(f.Len())
	for _, rec := range f.Records {
		id, payload, tracked, err := unwrapRecord(rec)
		if err != nil {
			return err
		}
		var produced []byte
		skipped, fatal := r.mf.guard(payload, func() error {
			v, _, err := adm.Decode(payload)
			if err != nil {
				return err
			}
			in, ok := v.(*adm.Record)
			if !ok {
				return fmt.Errorf("assign: value is %s, want record", v.Tag())
			}
			res, err := r.op.fn.Apply(in)
			if err != nil {
				return err
			}
			if res != nil {
				produced = adm.Encode(res)
			}
			return nil
		})
		if fatal != nil {
			return fatal
		}
		if skipped {
			r.op.conn.Metrics.SoftFailures.Add(1)
			continue
		}
		if produced == nil {
			continue // UDF filtered the record out
		}
		if tracked {
			produced = wrapTracked(id, produced)
		}
		out.Append(produced)
	}
	if out.Len() == 0 {
		return nil
	}
	if r.op.last {
		r.op.conn.Metrics.Computed.Add(int64(out.Len()))
	}
	r.joint.Deposit(out)
	return r.out.NextFrame(out)
}

func (r *assignRuntime) Close() error   { return r.out.Close() }
func (r *assignRuntime) Fail(err error) { r.out.Fail(err) }

// ---------------------------------------------------------------------------
// Store: the tail's final stage. Each instance is co-located with one
// partition of the target dataset, inserting each frame into the primary
// index and the secondary indexes, with per-record soft-failure handling and
// grouped at-least-once acks (§5.3.1, §5.6).

type storeOp struct {
	conn *Connection
	ds   *storage.Dataset
	// cluster resolves replica nodes' storage managers when the dataset
	// is replicated (the §9.2.2 extension).
	cluster *hyracks.Cluster
	// fault is the manager's injection hook (Options.FaultHook); consulted
	// as "ack:<node>" before each grouped ack delivery. Nil in production.
	fault func(point string) error
}

// Name implements hyracks.OperatorDescriptor.
func (o *storeOp) Name() string { return "Store(" + o.ds.QualifiedName() + ")" }

// CreateRuntime implements hyracks.OperatorDescriptor.
func (o *storeOp) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	sm, ok := ctx.Service(storage.ServiceName).(*storage.Manager)
	if !ok || sm == nil {
		return nil, fmt.Errorf("core: node %s has no storage manager", ctx.NodeID)
	}
	// The task's partition index equals its position in the nodegroup
	// (the store stage is location-constrained to the nodegroup in order).
	part, err := sm.OpenPartitionIdx(o.ds, ctx.Partition, false)
	if err != nil {
		return nil, err
	}
	rt := &storeRuntime{
		op:   o,
		ctx:  ctx,
		out:  out,
		part: part,
		mf:   newMetaFeed("store:"+o.ds.QualifiedName(), ctx.NodeID, o.conn.pol, o.conn.Log),
	}
	// Synchronous replication: open the replica partition on the next
	// nodegroup member. A dead replica node degrades to unreplicated
	// writes rather than blocking ingestion.
	if replicaNode := o.ds.ReplicaOf(ctx.Partition); replicaNode != "" && replicaNode != ctx.NodeID && o.cluster != nil {
		if n := o.cluster.Node(replicaNode); n != nil && n.Alive() {
			if rsm, ok := n.Service(storage.ServiceName).(*storage.Manager); ok && rsm != nil {
				rp, err := rsm.OpenPartitionIdx(o.ds, ctx.Partition, true)
				if err == nil {
					rt.replica = rp
					rt.replicaNode = n
				}
			}
		}
	}
	return rt, nil
}

type storeRuntime struct {
	op          *storeOp
	ctx         *hyracks.TaskContext
	out         hyracks.Writer
	part        *storage.Partition
	replica     *storage.Partition
	replicaNode *hyracks.NodeController
	mf          *metaFeed
	// recs/ids/acks are per-task scratch (one task goroutine drives
	// NextFrame, so no locking): each record's payload and tracking id, 0
	// when untracked (tracking ids start at 1).
	recs [][]byte
	ids  []uint64
	acks []uint64
}

func (r *storeRuntime) Open() error { return r.out.Open() }

// NextFrame stores one frame with a single InsertFrame per partition: one
// lock, one composite WAL record and one group-committed fsync per index.
// Bad records are soft failures (§6.1.2): InsertFrame names every one
// without touching the partition, each is logged and counted through the
// MetaFeed sandbox and acked, and the rest of the frame is inserted. An
// environmental failure (WAL write, fsync, replica IO) is not the records'
// fault, so acking them would silently lose them: they stay un-acked, the
// at-least-once sweeper replays them, and the idempotent upsert converges.
func (r *storeRuntime) NextFrame(f *hyracks.Frame) error {
	conn := r.op.conn
	recs, ids, acks := r.recs[:0], r.ids[:0], r.acks[:0]
	defer func() { r.recs, r.ids, r.acks = recs[:0], ids[:0], acks[:0] }()
	for _, rec := range f.Records {
		id, payload, _, err := unwrapRecord(rec)
		if err != nil {
			return err
		}
		recs = append(recs, payload)
		ids = append(ids, id)
	}
	if !conn.storeEnabled.Load() {
		// Disconnected-but-kept-alive: records flow for child feeds but
		// are not persisted here. Ack so intake memory frees.
		r.deliverAcks(appendTracked(acks, ids))
		return r.out.NextFrame(f)
	}

	err := r.insert(recs)
	var de *storage.DataError
	if errors.As(err, &de) {
		// Walk the frame in order so the consecutive-failure bound sees
		// good and bad records exactly as they arrived.
		kept, bad := 0, de.Records
		for i := range recs {
			if len(bad) == 0 || bad[0].Index != i {
				r.mf.succeeded()
				recs[kept], ids[kept] = recs[i], ids[i]
				kept++
				continue
			}
			cause := bad[0].Err
			bad = bad[1:]
			if _, fatal := r.mf.guard(recs[i], func() error { return cause }); fatal != nil {
				return fatal
			}
			conn.Metrics.SoftFailures.Add(1)
			// A soft-failed record is still acknowledged: at-least-once
			// covers loss, not unprocessable input.
			acks = appendTracked(acks, ids[i:i+1])
		}
		recs, ids = recs[:kept], ids[:kept]
		err = r.insert(recs)
	}
	if err != nil {
		conn.Metrics.StoreErrors.Add(int64(len(recs)))
		r.deliverAcks(acks)
		return r.out.NextFrame(f)
	}
	if len(recs) > 0 {
		conn.Metrics.Persisted.Add(int64(len(recs)))
	}
	r.deliverAcks(appendTracked(acks, ids))
	if obs := conn.onPersist.Load(); obs != nil {
		for _, rec := range recs {
			if v, err := adm.DecodeOne(rec); err == nil {
				(*obs)(v.(*adm.Record))
			}
		}
	}
	return r.out.NextFrame(f)
}

// insert writes recs to the partition and then, synchronously, to its
// replica (the in-process stand-in for a replication RPC). A dead replica
// node degrades to unreplicated writes rather than blocking ingestion.
func (r *storeRuntime) insert(recs [][]byte) error {
	if err := r.part.InsertFrame(recs); err != nil {
		return err
	}
	if r.replica != nil && r.replicaNode.Alive() {
		return r.replica.InsertFrame(recs)
	}
	return nil
}

// appendTracked appends the tracking ids among ids (skipping untracked
// records' zeros) to acks.
func appendTracked(acks, ids []uint64) []uint64 {
	for _, id := range ids {
		if id != 0 {
			acks = append(acks, id)
		}
	}
	return acks
}

// deliverAcks sends one grouped ack message for this frame (§5.6's windowed
// encoding). An injected "ack:<node>" fault models the ack message being
// lost in transit: the records are stored but stay tracked, so the sweeper
// replays them and the idempotent upsert absorbs the duplicates — the
// at-least-once guarantee must hold regardless.
func (r *storeRuntime) deliverAcks(acks []uint64) {
	conn := r.op.conn
	if len(acks) == 0 || conn.tracker == nil {
		return
	}
	if r.op.fault != nil {
		if err := r.op.fault("ack:" + r.ctx.NodeID); err != nil {
			return // ack message dropped
		}
	}
	conn.tracker.ack(acks)
}

func (r *storeRuntime) Close() error   { return r.out.Close() }
func (r *storeRuntime) Fail(err error) { r.out.Fail(err) }
