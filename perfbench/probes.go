package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/aql"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/metrics"
	"asterixfeeds/internal/storage"
	"asterixfeeds/internal/tweetgen"
)

// Probes are timed calls the benchmark makes straight into one layer's
// exported functions, on the workload's own records, so each layer's cost
// is measured without the layers above it. They run after the traced timed
// phase, on an otherwise idle process.
const (
	probeRecords = 8192 // records each per-record probe passes
	probeFrame   = 128  // records per frame, the feed runtime's default
	probeRepeats = 3    // each per-record probe runs this often; the median is kept
)

// perRecord times fn over n items probeRepeats times and returns the
// median ns and heap allocations per item.
func perRecord(tr *tracer, name string, n int, fn func(i int) error) (ns, allocs float64, err error) {
	var nss, als []float64
	for r := 0; r < probeRepeats; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tr.begin(name, -1, int64(r))
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		d := time.Since(start)
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(n))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	sort.Float64s(nss)
	sort.Float64s(als)
	return nss[len(nss)/2], als[len(als)/2], nil
}

// eachCall times every call of fn separately and returns the durations.
func eachCall(tr *tracer, name string, n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		end := time.Now()
		tr.add(name, start, end, -1, int64(i))
		out = append(out, float64(end.Sub(start).Nanoseconds()))
	}
	return out, nil
}

// frames cuts recs into frames of probeFrame records.
func frames(recs [][]byte) [][][]byte {
	var out [][][]byte
	for lo := 0; lo < len(recs); lo += probeFrame {
		out = append(out, recs[lo:min(lo+probeFrame, len(recs))])
	}
	return out
}

// probeInput is the slice of the workload's records the probes use.
type probeInput struct {
	enc  [][]byte
	recs []*adm.Record
	ids  []string
	pks  [][]byte
	bad  []byte // one invalid record: country is an int
}

func newProbeInput(in *input) (*probeInput, error) {
	p := &probeInput{}
	for i := 0; i < len(in.recs) && len(p.enc) < probeRecords; i++ {
		if !in.isValid(i) {
			continue
		}
		v, err := adm.DecodeOne(in.recs[i])
		if err != nil {
			return nil, err
		}
		p.enc = append(p.enc, in.recs[i])
		p.recs = append(p.recs, v.(*adm.Record))
		p.ids = append(p.ids, in.ids[i])
		p.pks = append(p.pks, adm.AppendValue(nil, adm.String(in.ids[i])))
	}
	if len(p.recs) == 0 {
		return nil, errors.New("no valid records to probe")
	}
	p.bad = adm.Encode(withField(p.recs[0], "country", adm.Int64(7)))
	return p, nil
}

// runProbes measures every per-layer probe and returns the metrics.
func runProbes(b *bench, s *system, o *outcome, tr *tracer, in *input) (map[string]float64, error) {
	pi, err := newProbeInput(in)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	dir := filepath.Join(s.dir, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	steps := []func(*system, *probeInput, map[string]float64, string, *tracer) error{
		probeADM, probeStorage, probeLSM, probeHyracks, probeGovernor, probeAQL, probeMetrics,
	}
	for _, step := range steps {
		if err := step(s, pi, m, dir, tr); err != nil {
			return nil, err
		}
	}
	// Self time where one probe contains another on the same inputs.
	m["storage.insert_frame_self_ns_per_rec"] = m["storage.insert_frame_ns_per_rec"] - m["lsm.apply_batch_ns_per_rec"]
	stmtUs := m["exec.stmt_us"]
	if b.workload == "insert_stmt" {
		stmtUs = o.writeP50() * 1e3
	}
	m["exec.self_us"] = stmtUs - m["aql.parse_us_per_stmt"] - m["hyracks.job_ms"]*1e3
	return m, nil
}

func probeADM(s *system, pi *probeInput, m map[string]float64, _ string, tr *tracer) error {
	typ := s.ds().Type
	var err error
	m["adm.encode_ns_per_rec"], m["adm.encode_allocs_per_rec"], err = perRecord(tr, "adm.Encode", len(pi.recs), func(i int) error {
		adm.Encode(pi.recs[i])
		return nil
	})
	if err != nil {
		return err
	}
	m["adm.validate_ns_per_rec"], m["adm.validate_allocs_per_rec"], err = perRecord(tr, "adm.ValidateEncoded", len(pi.enc), func(i int) error {
		return typ.ValidateEncoded(pi.enc[i])
	})
	if err != nil {
		return err
	}
	m["adm.decode_ns_per_rec"], m["adm.decode_allocs_per_rec"], err = perRecord(tr, "adm.DecodeOne", len(pi.enc), func(i int) error {
		_, err := adm.DecodeOne(pi.enc[i])
		return err
	})
	return err
}

func probeStorage(s *system, pi *probeInput, m map[string]float64, dir string, tr *tracer) error {
	ds := s.ds()
	sm := storage.NewManager("probe", filepath.Join(dir, "storage"), lsm.Options{SyncWAL: 0})
	defer sm.Close()
	// A fresh partition per repeat, so every insert_frame pass inserts new
	// keys and every replace_frame pass replaces them.
	fr := frames(pi.enc)
	n := len(pi.enc)
	opened := 0
	fresh := func() ([]*storage.Partition, error) {
		var parts []*storage.Partition
		for r := 0; r < probeRepeats; r++ {
			rds := *ds
			rds.Name = fmt.Sprintf("%s_probe%d", ds.Name, opened)
			rds.NodeGroup = []string{"probe"}
			opened++
			p, err := sm.OpenPartitionIdx(&rds, 0, false)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		}
		return parts, nil
	}
	// pass runs fn once per repeat, each time on the next of parts, and
	// returns the median ns per record.
	pass := func(name string, parts []*storage.Partition, fn func(p *storage.Partition) error) (float64, error) {
		r := 0
		ns, _, err := perRecord(tr, name, 1, func(int) error {
			r++
			return fn(parts[r-1])
		})
		return ns / float64(n), err
	}
	insertAll := func(p *storage.Partition) error {
		for _, f := range fr {
			if err := p.InsertFrame(f); err != nil {
				return err
			}
		}
		return nil
	}
	parts, err := fresh()
	if err != nil {
		return err
	}
	if m["storage.insert_frame_ns_per_rec"], err = pass("storage.InsertFrame", parts, insertAll); err != nil {
		return err
	}
	if m["storage.replace_frame_ns_per_rec"], err = pass("storage.InsertFrame.replace", parts, insertAll); err != nil {
		return err
	}
	// A frame of new keys holding one invalid record: InsertFrame rejects
	// it whole and the store runtime falls back to decoding and inserting
	// record by record, which is what this probe repeats.
	badFrames := make([][][]byte, 0, len(fr))
	for _, f := range fr {
		bf := append(append([][]byte(nil), f[:len(f)-1]...), pi.bad)
		badFrames = append(badFrames, bf)
	}
	if parts, err = fresh(); err != nil {
		return err
	}
	m["storage.bad_frame_ns_per_rec"], err = pass("storage.bad_frame", parts, func(p *storage.Partition) error {
		for _, f := range badFrames {
			if p.InsertFrame(f) == nil {
				return errors.New("frame with an invalid record was accepted")
			}
			for _, enc := range f {
				v, err := adm.DecodeOne(enc)
				if err != nil {
					return err
				}
				if err := p.Insert(v.(*adm.Record)); err != nil && !storage.IsDataError(err) {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Lookup on the workload's own partition with no ingest running.
	live, err := s.partitions()
	if err != nil {
		return err
	}
	ids := pi.ids[:min(len(pi.ids), 4000)]
	lat, err := eachCall(tr, "storage.Lookup.probe", len(ids), func(i int) error {
		_, found, err := s.partitionOf(live, ids[i]).Lookup([]adm.Value{adm.String(ids[i])})
		if err == nil && !found {
			err = fmt.Errorf("key %s not found", ids[i])
		}
		return err
	})
	if err != nil {
		return err
	}
	t := summarize(lat)
	m["storage.lookup_us_p50"] = t.P50 / 1e3
	m["storage.lookup_us_p99"] = t.Tail / 1e3
	return nil
}

func probeLSM(_ *system, pi *probeInput, m map[string]float64, dir string, tr *tracer) error {
	open := func(name string, sync int) (*lsm.Tree, error) {
		return lsm.Open(lsm.Options{Dir: filepath.Join(dir, name), SyncWAL: sync,
			BlockCache: lsm.NewBlockCache(32 << 20)})
	}
	batches := func() []*lsm.Batch {
		var out []*lsm.Batch
		for lo := 0; lo < len(pi.enc); lo += probeFrame {
			hi := min(lo+probeFrame, len(pi.enc))
			b := lsm.NewBatch(hi - lo)
			for i := lo; i < hi; i++ {
				b.Put(pi.pks[i], pi.enc[i])
			}
			out = append(out, b)
		}
		return out
	}
	bs := batches()
	var trees []*lsm.Tree
	defer func() {
		for _, t := range trees {
			_ = t.Close()
		}
	}()
	for r := 0; r < probeRepeats; r++ {
		t, err := open(fmt.Sprintf("lsm%d", r), 0)
		if err != nil {
			return err
		}
		trees = append(trees, t)
	}
	r := 0
	ns, _, err := perRecord(tr, "lsm.ApplyBatch", 1, func(int) error {
		t := trees[r]
		r++
		for _, b := range bs {
			if err := t.ApplyBatch(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["lsm.apply_batch_ns_per_rec"] = ns / float64(len(pi.enc))

	// Gets against a flushed tree, so they go through bloom filter, sparse
	// index and block cache like a lookup of preloaded data.
	t := trees[0]
	if err := t.Flush(); err != nil {
		return err
	}
	m["lsm.get_ns_hit"], _, err = perRecord(tr, "lsm.Get.hit", len(pi.pks), func(i int) error {
		_, ok, err := t.Get(pi.pks[i])
		if err == nil && !ok {
			err = errors.New("key missing")
		}
		return err
	})
	if err != nil {
		return err
	}
	missing := make([][]byte, len(pi.pks))
	for i, id := range pi.ids {
		missing[i] = adm.AppendValue(nil, adm.String(id+"~absent"))
	}
	m["lsm.get_ns_miss"], _, err = perRecord(tr, "lsm.Get.miss", len(missing), func(i int) error {
		_, ok, err := t.Get(missing[i])
		if err == nil && ok {
			err = errors.New("absent key found")
		}
		return err
	})
	if err != nil {
		return err
	}

	// Group commit: one fsync per batch on a SyncWAL 1 tree.
	dt, err := open("lsm-sync", 1)
	if err != nil {
		return err
	}
	trees = append(trees, dt)
	nb := min(len(bs), 32)
	lat, err := eachCall(tr, "lsm.ApplyBatch.sync", nb, func(i int) error { return dt.ApplyBatch(bs[i]) })
	if err != nil {
		return err
	}
	m["lsm.group_commit_ms"] = median(lat) / 1e6
	return nil
}

// probeSource emits a fixed list of frames; probeSink consumes them.
type probeSource struct{ frames [][][]byte }

func (o *probeSource) Name() string { return "ProbeSource" }
func (o *probeSource) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	return &probeSourceRT{op: o, ctx: ctx, out: out}, nil
}

type probeSourceRT struct {
	op  *probeSource
	ctx *hyracks.TaskContext
	out hyracks.Writer
}

func (r *probeSourceRT) Open() error { return r.out.Open() }
func (r *probeSourceRT) NextFrame(*hyracks.Frame) error {
	return errors.New("probe source has no input")
}
func (r *probeSourceRT) Close() error   { return r.out.Close() }
func (r *probeSourceRT) Fail(err error) { r.out.Fail(err) }
func (r *probeSourceRT) Run() error {
	if err := r.out.Open(); err != nil {
		return err
	}
	for _, f := range r.op.frames {
		select {
		case <-r.ctx.Canceled:
			r.out.Fail(hyracks.ErrJobCanceled)
			return hyracks.ErrJobCanceled
		default:
		}
		if err := r.out.NextFrame(&hyracks.Frame{Records: f}); err != nil {
			r.out.Fail(err)
			return err
		}
	}
	return r.out.Close()
}

type probeSink struct{}

func (probeSink) Name() string { return "ProbeSink" }
func (probeSink) CreateRuntime(_ *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	return out, nil
}

func probeHyracks(s *system, pi *probeInput, m map[string]float64, _ string, tr *tracer) error {
	node := s.nodes[0]
	job := func(fr [][][]byte) error {
		spec := &hyracks.JobSpec{Name: "perfbench-probe"}
		src := spec.AddOperator(&probeSource{frames: fr}, hyracks.LocationConstraint(node))
		dst := spec.AddOperator(probeSink{}, hyracks.LocationConstraint(node))
		spec.Connect(src, dst, hyracks.OneToOne, nil)
		h, err := s.inst.Cluster().StartJob(spec)
		if err != nil {
			return err
		}
		return h.Wait()
	}
	fr := frames(pi.enc)
	one, err := eachCall(tr, "hyracks.job", 50, func(int) error { return job(fr[:1]) })
	if err != nil {
		return err
	}
	m["hyracks.job_ms"] = median(one) / 1e6
	all, err := eachCall(tr, "hyracks.job.frames", probeRepeats, func(int) error { return job(fr) })
	if err != nil {
		return err
	}
	if len(fr) > 1 {
		m["hyracks.hop_us_per_frame"] = (median(all) - median(one)) / float64(len(fr)-1) / 1e3
	}
	return nil
}

func probeGovernor(_ *system, pi *probeInput, m map[string]float64, _ string, tr *tracer) error {
	g := governor.New("probe", governor.Config{})
	a := g.Admission("probe", governor.ClassNormal)
	bytes := int64(0)
	for _, r := range pi.enc[:min(probeFrame, len(pi.enc))] {
		bytes += int64(len(r))
	}
	var err error
	m["governor.admit_ns"], _, err = perRecord(tr, "governor.Admit", 100000, func(int) error {
		if a.Admit(bytes, probeFrame) != governor.Admit {
			return errors.New("idle governor refused a frame")
		}
		return nil
	})
	return err
}

func probeAQL(s *system, pi *probeInput, m map[string]float64, _ string, tr *tracer) error {
	var stmts []string
	for lo := 0; lo+stmtBatch <= len(pi.recs) && len(stmts) < 200; lo += stmtBatch {
		stmts = append(stmts, statement(pi.recs[lo:lo+stmtBatch]))
	}
	lat, err := eachCall(tr, "aql.Parse", len(stmts), func(i int) error {
		_, err := aql.Parse(stmts[i])
		return err
	})
	if err != nil {
		return err
	}
	m["aql.parse_us_per_stmt"] = median(lat) / 1e3

	// Whole statements into a probe dataset of the same type, for the
	// workloads whose timed phase runs none.
	if _, err := s.inst.Exec("use dataverse feeds; create dataset ProbeTweets(Tweet) primary key id;"); err != nil {
		return err
	}
	n := min(len(stmts), 100)
	lat, err = eachCall(tr, "Instance.Exec.probe", n, func(i int) error {
		_, err := s.inst.Exec(strings.Replace(stmts[i], "dataset Tweets ", "dataset ProbeTweets ", 1))
		return err
	})
	if err != nil {
		return err
	}
	m["exec.stmt_us"] = median(lat) / 1e3
	return nil
}

func probeMetrics(_ *system, _ *probeInput, m map[string]float64, _ string, tr *tracer) error {
	l := metrics.NewLatencyRecorder()
	var err error
	m["metrics.latency_record_ns"], _, err = perRecord(tr, "metrics.LatencyRecorder.Record", 100000, func(i int) error {
		l.Record(time.Duration(i) * time.Microsecond)
		return nil
	})
	return err
}

// coreProbe gives the feed-layer metrics of a workload whose timed phase
// runs no feed: it connects a feed to a probe dataset and emits the probe
// records through it as fast as Emit returns.
func coreProbe(s *system, pi *probeInput, tr *tracer) (_ *core.Connection, emitNs []float64, backlogMax int64, _ error) {
	if _, err := s.inst.Exec("use dataverse feeds; create dataset CoreProbe(Tweet) primary key id;"); err != nil {
		return nil, nil, 0, err
	}
	conn, src, err := s.connectFeed("ProbeFeed", "CoreProbe", tr)
	if err != nil {
		return nil, nil, 0, err
	}
	in := &input{recs: pi.enc}
	w := newWriterResult(len(in.recs))
	src.run = func(sink core.RecordSink, stop <-chan struct{}) {
		runWriter(w, sink, stop, in, 0, time.Now(), saturateWindow, completed(conn), tr)
	}
	src.begin()
	<-src.done
	backlog := "feed." + conn.ID() + ".backlog"
	deadline := time.Now().Add(drainTimeout)
	for conn.Metrics.Persisted.Total() < int64(len(in.recs)) || conn.PendingAcks() > 0 {
		v, _ := s.inst.Registry().Value(backlog)
		backlogMax = max(backlogMax, v)
		if time.Now().After(deadline) {
			return nil, nil, 0, errors.New("core probe feed did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	return conn, w.emitNs, backlogMax, nil
}

// recentReplacements generates n TweetGen records of which one in
// replaceEvery replaces the key of one of the replaceSpan records before it,
// and returns every version sent for each replaced key, in order. Sent as
// fast as the pipeline takes them, a key's two versions often travel in
// neighbouring frames (the core.stale_replaced_keys probe).
func recentReplacements(seed int64, rnd *rand.Rand, n int) (*input, map[string][]uint64) {
	g := tweetgen.NewGenerator(seed, 2)
	in := &input{}
	versions := map[string][]uint64{}
	for i := 0; i < n; i++ {
		rec := g.Next()
		if i%replaceEvery == replaceEvery-1 && i > replaceSpan {
			j := i - 1 - rnd.Intn(replaceSpan)
			id := in.ids[j]
			rec = withField(rec, "id", adm.String(id))
			if _, ok := versions[id]; !ok {
				versions[id] = []uint64{in.digests[j]}
			}
		}
		in.add(rec, true)
		if v, ok := versions[in.ids[i]]; ok {
			versions[in.ids[i]] = append(v, in.digests[i])
		}
	}
	return in, versions
}

// orderProbe measures whether the feed runtime applies a key's versions in
// the order they were emitted. On a 2-node instance of its own it sends
// orderRecords records, of which recentReplacements makes one in
// replaceEvery a new version of a key sent shortly before, as fast as a
// window of saturateWindow records in flight allows. It returns how many
// replaced keys hold an earlier version than the last one sent. The sink
// cuts a frame under its lock but deposits it after releasing the lock, so
// a frame its flush timer cut can be deposited after a later one that Emit
// filled. That takes a goroutine being descheduled between the two, so the
// count depends on how busy the host is; it is 0 on every run once frames
// are deposited in order. Any other difference from what was sent is an
// error.
func orderProbe(b *bench, tr *tracer) (float64, error) {
	in, versions := recentReplacements(b.genSeed(), b.rnd(4), orderRecords)
	want := wantOf(in)
	s, err := boot(filepath.Join(b.root, "order"), 2)
	if err != nil {
		return 0, err
	}
	defer s.close()
	conn, src, err := s.connectFeed(feedName, dataset, tr)
	if err != nil {
		return 0, err
	}
	w := newWriterResult(len(in.recs))
	src.run = func(sink core.RecordSink, stop <-chan struct{}) {
		runWriter(w, sink, stop, in, 0, time.Now(), saturateWindow, completed(conn), tr)
	}
	src.begin()
	<-src.done
	if _, err := waitAcked(conn, int64(len(in.recs)), 0, time.Now().Add(drainTimeout)); err != nil {
		return 0, err
	}
	got, err := s.storedDigests(dataset)
	if err != nil {
		return 0, err
	}
	var t tally
	checkStored(want, got, versions, &t)
	stale := t.reasons[staleVersion]
	if w.emitErrs > 0 || t.failed > stale {
		return 0, fmt.Errorf("%d emit errors, stored records differ from those sent: %v", w.emitErrs, t.reasons)
	}
	return float64(stale), nil
}
