package main

import (
	"errors"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/storage"
	"asterixfeeds/internal/tweetgen"
)

// input is a workload's pre-generated records, serialized: the adaptor
// parses each one just before emitting it, as a real adaptor parses its
// wire format, which keeps the inputs of a 10 s run to tens of MB instead
// of hundreds of MB of decoded records.
type input struct {
	recs    [][]byte
	ids     []string
	digests []uint64
	valid   []bool // nil: every record is valid
}

func (in *input) add(rec *adm.Record, valid bool) {
	enc := adm.Encode(rec)
	in.recs = append(in.recs, enc)
	in.ids = append(in.ids, recordID(rec))
	in.digests = append(in.digests, digest(enc))
	in.valid = append(in.valid, valid)
}

func (in *input) isValid(i int) bool { return in.valid == nil || in.valid[i] }

// withField returns a copy of rec with field name set to v.
func withField(rec *adm.Record, name string, v adm.Value) *adm.Record {
	b := &adm.RecordBuilder{}
	for i, n := range rec.FieldNames() {
		_, fv := rec.FieldAt(i)
		if n == name {
			fv = v
		}
		b.Add(n, fv)
	}
	return b.MustBuild()
}

// tweets generates n TweetGen records from (seed, partition).
func tweets(seed int64, partition, n int) *input {
	g := tweetgen.NewGenerator(seed, partition)
	in := &input{}
	for i := 0; i < n; i++ {
		in.add(g.Next(), true)
	}
	return in
}

// sleepUntil blocks the calling thread until t and returns the time it woke.
// Go's runtime timers can wake a millisecond late, which would swamp a
// sub-millisecond schedule; a raw nanosleep wakes within about 0.1 ms.
func sleepUntil(t time.Time) time.Time {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the op late, which is measured
	}
	return time.Now()
}

// pacer is an open-loop schedule: op i is due at t0 + i×interval, whatever
// happened to earlier ops. An op's latency is measured from its effective
// due time: the scheduled time, or the moment the pacer's own sleep woke
// when that sleep overshot it. So a stall of the system is charged to every
// op scheduled during it, while the harness's wake-up slack is not; both
// kinds of lateness are reported (bench.gen_late_*).
type pacer struct {
	t0       time.Time
	interval time.Duration
	woke     time.Time
	late     []float64 // ms each op started behind its scheduled time
}

// wait blocks until op i is due and returns its effective due time.
func (p *pacer) wait(i int) time.Time {
	due := p.t0.Add(time.Duration(i) * p.interval)
	if time.Now().Before(due) {
		p.woke = sleepUntil(due)
	}
	p.late = append(p.late, float64(time.Since(due).Nanoseconds())/1e6)
	if p.woke.After(due) {
		return p.woke
	}
	return due
}

// writerResult is what the load loop observed while emitting. Its slices
// are allocated at full size before the baseline heap is read (newOutcome).
type writerResult struct {
	// due holds each valid record's effective due time, ns after t0, in
	// emit order: the times the completion curve is matched against.
	due []int64
	// late is how far behind schedule each emit started, in ms.
	late []float64
	// emitAt/emitNs are each Emit call's start (ns after t0) and duration.
	emitAt []int64
	emitNs []float64
	// waitNs is, for a closed loop, each record's time from being ready to
	// send until Emit returned: the window wait, the parse and Emit.
	waitNs   []float64
	emitErrs int64
	end      time.Time
	harness  time.Duration // CPU the loop spent pacing and recording
}

func newWriterResult(n int) *writerResult {
	return &writerResult{
		due: make([]int64, 0, n), late: make([]float64, 0, n),
		emitAt: make([]int64, 0, n), emitNs: make([]float64, 0, n), waitNs: make([]float64, 0, n),
	}
}

// runWriter emits in.recs through sink, recording into w. With interval > 0
// it is an open loop paced from t0. With interval 0 it is a closed loop that
// keeps up to inflight records sent but not yet completed (done reports how
// many have completed): each record is due when the window lets it go, and
// its lateness is the loop's own delay from then to Emit (the parse).
// Parsing a record (adm.DecodeOne, the adaptor's work) and Emit are the
// system's CPU; the rest of the loop is the harness's (w.harness).
func runWriter(w *writerResult, sink core.RecordSink, stop <-chan struct{}, in *input, interval time.Duration, t0 time.Time,
	inflight int64, done func() int64, tr *tracer) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var h harnessCPU
	h.begin()
	defer func() {
		h.end()
		w.harness = h.spent
		w.end = time.Now()
	}()
	p := &pacer{t0: t0, interval: interval, late: w.late}
	defer func() { w.late = p.late }()
	for i, enc := range in.recs {
		select {
		case <-stop:
			w.emitErrs += int64(len(in.recs) - i)
			return
		default:
		}
		ready := time.Now()
		var due time.Time
		if interval == 0 {
			for int64(i)-done() >= inflight {
				sleepUntil(time.Now().Add(pollInterval))
			}
			due = time.Now()
		} else {
			due = p.wait(i)
		}
		h.end()
		v, err := adm.DecodeOne(enc)
		rec, ok := v.(*adm.Record)
		start := time.Now()
		if err == nil && ok {
			err = sink.Emit(rec)
		} else if err == nil {
			err = errors.New("input is not a record")
		}
		end := time.Now()
		h.begin()
		w.emitAt = append(w.emitAt, start.Sub(t0).Nanoseconds())
		w.emitNs = append(w.emitNs, float64(end.Sub(start).Nanoseconds()))
		if interval == 0 {
			w.waitNs = append(w.waitNs, float64(end.Sub(ready).Nanoseconds()))
			p.late = append(p.late, float64(start.Sub(due).Nanoseconds())/1e6)
		}
		tr.add("core.Emit", start, end, -1, int64(i))
		if err != nil {
			w.emitErrs++
			continue
		}
		if in.isValid(i) {
			w.due = append(w.due, due.Sub(t0).Nanoseconds())
		}
	}
}

// readerResult is what a lookup client observed. Its slices are allocated
// at full size before the baseline heap is read (newOutcome).
type readerResult struct {
	keys    []string  // the ids to look up, in order
	at      []int64   // ns after the reader's t0 each lookup was due
	span    int64     // ns the reader ran
	lat     []float64 // µs per lookup
	late    []float64 // ms behind schedule at each call
	t       tally
	harness time.Duration // CPU the reader spent pacing and checking answers
}

// newReaderResult draws n keys uniformly from ids.
func newReaderResult(ids []string, n int, rnd *rand.Rand) *readerResult {
	r := &readerResult{keys: make([]string, n), at: make([]int64, 0, n), lat: make([]float64, 0, n), late: make([]float64, 0, n)}
	for i := range r.keys {
		r.keys[i] = ids[rnd.Intn(len(ids))]
	}
	return r
}

// runReader looks up r.keys paced at interval from t0, each timed from its
// effective due time to Lookup's return. A lookup must return the id it
// asked for, with the content of one of the versions sent for that id. It
// stops early when stop closes. Only Lookup is the system's CPU; pacing and
// checking the answers are the harness's (r.harness).
func runReader(r *readerResult, sys *system, parts []*storage.Partition, versions func(id string) []uint64,
	interval time.Duration, t0 time.Time, stop <-chan struct{}, tr *tracer) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var h harnessCPU
	h.begin()
	p := &pacer{t0: t0, interval: interval, late: r.late}
	defer func() {
		r.late = p.late
		r.span = time.Since(t0).Nanoseconds()
		h.end()
		r.harness = h.spent
	}()
	for i, id := range r.keys {
		select {
		case <-stop:
			return
		default:
		}
		due := p.wait(i)
		part := sys.partitionOf(parts, id)
		key := []adm.Value{adm.String(id)}
		h.end()
		start := time.Now()
		rec, found, err := part.Lookup(key)
		end := time.Now()
		h.begin()
		tr.add("storage.Lookup", start, end, -1, int64(i))
		r.at = append(r.at, due.Sub(t0).Nanoseconds())
		r.lat = append(r.lat, float64(end.Sub(due).Nanoseconds())/1e3)
		good := false
		for _, v := range versions(id) {
			good = good || lookupOK(id, v, rec, found, err)
		}
		r.t.check(good, "lookup wrong or missing")
	}
}
