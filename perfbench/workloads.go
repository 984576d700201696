package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/tweetgen"
)

// Workload shapes. The rates are sized for a 2-CPU host: at most two load
// goroutines plus the sleeping sampler.
const (
	steadyRate   = 10000  // feed_steady records/s
	upsertRate   = 5000   // upsert_lookup records/s
	lookupRate   = 2000   // upsert_lookup lookups/s
	preloadCount = 250000 // upsert_lookup preload, ~2× the node's 32 MiB block cache
	preloadChunk = 10000  // records per InsertRecords call while preloading
	saturateRate = 20000  // feed_saturate records per second of --seconds
	badEvery     = 2000   // feed_saturate: one invalid record per this many
	// The order probe: one record in replaceEvery replaces the key of one
	// of the replaceSpan records before it.
	replaceEvery = 2
	replaceSpan  = 128
	orderRecords = 200000 // records the order probe sends
	stmtBatch    = 20     // insert_stmt records per statement (Table 5.1)
	// stmtsPerSecond × --seconds is insert_stmt's statement count: a bit
	// under half the time one client needs, which keeps the pre-rendered
	// statement texts near 50 MB.
	stmtsPerSecond = 600
	// saturateWindow bounds feed_saturate's records in flight. Emitting
	// with no bound only grows a queue (the governor's head gate stays open
	// below 0.9 of its 64 MiB budget, more than the whole input), so the
	// latency of a record would be its place in the queue; with a window the
	// pipeline stays saturated and a record's latency is window ÷ throughput.
	saturateWindow = 8192
	drainTimeout   = 60 * time.Second
)

// workload is one benchmark workload. prepare generates the inputs from the
// seed before anything is timed; setup runs inside setup_s after boot and
// reports the part of its time spent generating inputs, which is excluded;
// run is the timed phase followed by the correctness gate, recording into
// an outcome made by newOutcome.
type workload struct {
	nodes   int
	prepare func(b *bench)
	setup   func(b *bench, s *system, tr *tracer) (excluded time.Duration, err error)
	run     func(b *bench, s *system, tr *tracer, o *outcome) error
	// probe returns records of this workload for the per-layer probes.
	probe func(b *bench) *input
}

// outcome is one timed phase's observations.
type outcome struct {
	t        tally
	writeAt  []int64   // ns after t0 each write was due
	writeLat []float64 // ms per write: see write_p50_ms in README.md
	// persistAt/persistLat: each record's due time and its latency until
	// persisted (ms); for insert_stmt the statements again.
	persistAt  []int64
	persistLat []float64
	span       int64 // ns from t0 to the end of the write phase
	// rateAt/rateVal are the throughput samples: records completed at a
	// time (feeds), or one statement's duration in s (insert_stmt).
	rateAt       []int64
	rateVal      []float64
	w            *writerResult // feed workloads
	read         *readerResult // upsert_lookup's reader
	phaseLookups int           // lookups made during the timed phase
	records      int64         // valid records written
	writeSecs    float64       // time the records took to write
	late         []float64     // ms the load loops ran behind schedule
	emitNs       []float64
	smp          *sampler
	goBefore     goStats
	goAfter      goStats
	cpuBefore    time.Duration
	cpuAfter     time.Duration
	regBefore    map[string]int64
	regAfter     map[string]int64
	conn         *core.Connection // the feed's connection, if the workload runs one
	// heapBaseMB is the live heap of the harness alone: the inputs and
	// these buffers, read before any system was booted.
	heapBaseMB float64
	heapEndMB  float64 // the live heap at the end of the phase
}

// newOutcome allocates everything the timed phase records at its full size
// up front. These buffers are the harness's memory, like the inputs:
// the heap metrics subtract the live heap read once both exist, before boot.
func newOutcome(b *bench) *outcome {
	o := &outcome{smp: newSampler(b.seconds)}
	if b.stmts != nil {
		n := len(b.stmts)
		o.writeAt, o.writeLat = make([]int64, 0, n), make([]float64, 0, n)
		o.rateAt, o.rateVal = make([]int64, 0, n), make([]float64, 0, n)
		o.late = make([]float64, 0, n)
		return o
	}
	o.w = newWriterResult(len(b.feed.recs))
	if b.lookups > 0 {
		o.read = newReaderResult(b.preload.ids, b.lookups, b.rnd(3))
	}
	return o
}

func (o *outcome) begin(s *system) time.Time {
	runtime.GC()
	o.cpuBefore = cpuTime()
	o.goBefore = readGo()
	o.regBefore = s.regSnapshot()
	t0 := time.Now().Add(time.Millisecond)
	o.smp.start(s, t0)
	return t0
}

func (o *outcome) end(s *system) {
	o.smp.finish()
	o.cpuAfter = cpuTime()
	o.goAfter = readGo()
	o.regAfter = s.regSnapshot()
	// The live heap at the end of the phase (heap_live_mb), exactly: the
	// sampler only sees it as of the last collection, which may be a second
	// old. Flushes and merges still running would hold a memtable more or
	// less, so they are waited out first.
	s.settle(time.Now().Add(drainTimeout))
	runtime.GC()
	o.heapEndMB = float64(readGo().heapLive) / (1 << 20)
}

// bench holds one invocation's settings and inputs.
type bench struct {
	workload string
	seed     int64
	seconds  int
	root     string

	feed    *input            // feed_* and upsert_lookup: records the adaptor emits
	preload *input            // upsert_lookup: records loaded before the feed
	want    map[string]uint64 // id → digest the dataset must hold at the end
	// replaced maps each key the feed replaces to every version it was
	// given, preload first: a lookup racing the feed may see any of them.
	replaced map[string][]uint64
	lookups  int      // upsert_lookup: lookups the reader makes
	stmts    []string // insert_stmt: the statements, rendered
}

// versionsOf returns the contents a lookup of id may legitimately return.
func (b *bench) versionsOf(id string) []uint64 {
	if v, ok := b.replaced[id]; ok {
		return v
	}
	return []uint64{b.want[id]}
}

// genSeed is the TweetGen seed for --seed. TweetGen writes its seed into
// every record id, so the seed's number of digits would change the size of
// the input, and with it whether a memtable flush falls just before or just
// after the end of the phase: the live heap on insert_stmt read 52.5 MB for
// seeds 1-99 and 64.2 MB for 100-999. Every --seed maps to seven digits.
func (b *bench) genSeed() int64 { return 1_000_000 + int64(uint64(b.seed)%9_000_000) }

func (b *bench) rnd(salt int64) *rand.Rand { return rand.New(rand.NewSource(b.seed*1000003 + salt)) }

var workloads = map[string]*workload{
	"feed_steady":   feedSteady(),
	"feed_saturate": feedSaturate(),
	"upsert_lookup": upsertLookup(),
	"insert_stmt":   insertStmt(),
}

func connectOnly(_ *bench, s *system, tr *tracer) (time.Duration, error) {
	var err error
	s.conn, s.src, err = s.connectFeed(feedName, dataset, tr)
	return 0, err
}

// feedSteady: one node, open loop at a constant 10,000 rec/s of new keys.
func feedSteady() *workload {
	return &workload{
		nodes: 1,
		prepare: func(b *bench) {
			b.feed = tweets(b.genSeed(), 0, steadyRate*b.seconds)
			b.want = wantOf(b.feed)
		},
		setup: connectOnly,
		run: func(b *bench, s *system, tr *tracer, o *outcome) error {
			return runFeed(b, s, tr, o, time.Second/steadyRate)
		},
		probe: func(b *bench) *input { return b.feed },
	}
}

// feedSaturate: two nodes, a fixed N records of new keys emitted as fast as
// Emit returns, one in badEvery with an int country.
func feedSaturate() *workload {
	return &workload{
		nodes: 2,
		prepare: func(b *bench) {
			n := saturateRate * b.seconds
			g := tweetgen.NewGenerator(b.genSeed(), 0)
			rnd := b.rnd(1)
			b.feed = &input{}
			bad := -1
			for i := 0; i < n; i++ {
				if i%badEvery == 0 {
					bad = i + rnd.Intn(badEvery)
				}
				rec := g.Next()
				if i == bad {
					b.feed.add(withField(rec, "country", adm.Int64(int64(i))), false)
					continue
				}
				b.feed.add(rec, true)
			}
			b.want = wantOf(b.feed)
		},
		setup: connectOnly,
		run: func(b *bench, s *system, tr *tracer, o *outcome) error {
			return runFeed(b, s, tr, o, 0)
		},
		probe: func(b *bench) *input { return b.feed },
	}
}

// upsertLookup: one node, 250,000 preloaded records, then an open-loop feed
// at 5,000 rec/s where half the records replace a preloaded key (each key
// at most once), beside an open-loop reader at 2,000 lookups/s on preloaded keys.
func upsertLookup() *workload {
	return &workload{
		nodes: 1,
		prepare: func(b *bench) {
			b.preload = tweets(b.genSeed(), 1, preloadCount)
			b.want = wantOf(b.preload)
			g := tweetgen.NewGenerator(b.genSeed(), 0)
			rnd := b.rnd(2)
			b.feed = &input{}
			b.replaced = map[string][]uint64{}
			b.lookups = lookupRate * b.seconds
			// Each preloaded key is replaced at most once, so no key has two
			// versions in flight at the same time: the feed runtime does not
			// keep frames in order (README.md, "Frames applied out of order").
			order := rnd.Perm(preloadCount)
			for i := 0; i < upsertRate*b.seconds; i++ {
				rec := g.Next()
				if rnd.Intn(2) == 0 {
					id := b.preload.ids[order[0]]
					order = order[1:]
					rec = withField(rec, "id", adm.String(id))
					b.replaced[id] = []uint64{b.want[id]}
				}
				b.feed.add(rec, true)
				id := b.feed.ids[i]
				if _, ok := b.replaced[id]; ok {
					b.replaced[id] = append(b.replaced[id], b.feed.digests[i])
				}
				b.want[id] = b.feed.digests[i]
			}
		},
		setup: func(b *bench, s *system, tr *tracer) (time.Duration, error) {
			var excluded time.Duration
			for lo := 0; lo < len(b.preload.recs); lo += preloadChunk {
				t := time.Now()
				hi := min(lo+preloadChunk, len(b.preload.recs))
				recs := make([]*adm.Record, 0, hi-lo)
				for _, enc := range b.preload.recs[lo:hi] {
					v, err := adm.DecodeOne(enc)
					if err != nil {
						return 0, err
					}
					recs = append(recs, v.(*adm.Record))
				}
				excluded += time.Since(t)
				sp := tr.begin("InsertRecords", -1, int64(lo))
				err := s.inst.InsertRecords(dataset, recs)
				tr.end(sp)
				if err != nil {
					return 0, err
				}
			}
			parts, err := s.partitions()
			if err != nil {
				return 0, err
			}
			for _, p := range parts {
				if err := p.Flush(); err != nil {
					return 0, err
				}
			}
			_, err = connectOnly(b, s, tr)
			return excluded, err
		},
		run: func(b *bench, s *system, tr *tracer, o *outcome) error {
			return runFeed(b, s, tr, o, time.Second/upsertRate)
		},
		probe: func(b *bench) *input { return b.feed },
	}
}

func wantOf(in *input) map[string]uint64 {
	m := make(map[string]uint64, len(in.ids))
	for i, id := range in.ids {
		if in.isValid(i) {
			m[id] = in.digests[i]
		}
	}
	return m
}

// runFeed is the timed phase of every feed workload: the adaptor emits
// b.feed (open loop when interval > 0), beside upsert_lookup's open-loop
// reader of preloaded keys, and the phase ends when every valid record is
// persisted and acknowledged.
func runFeed(b *bench, s *system, tr *tracer, o *outcome, interval time.Duration) error {
	o.conn = s.conn
	in := b.feed
	valid, invalid := int64(0), int64(0)
	for i := range in.recs {
		if in.isValid(i) {
			valid++
		} else {
			invalid++
		}
	}
	t0 := o.begin(s)
	w := o.w
	s.src.run = func(sink core.RecordSink, stop <-chan struct{}) {
		runWriter(w, sink, stop, in, interval, t0, saturateWindow, completed(s.conn), tr)
	}
	readerDone := make(chan struct{})
	if r := o.read; r != nil {
		parts, err := s.partitions()
		if err != nil {
			return err
		}
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			defer close(readerDone)
			runReader(r, s, parts, b.versionsOf, time.Second/lookupRate, t0, stop, tr)
		}()
	} else {
		close(readerDone)
	}
	s.src.begin()
	select {
	case <-s.src.done:
	case <-time.After(time.Duration(b.seconds)*time.Second + drainTimeout):
		return errors.New("the adaptor never finished emitting")
	}
	doneAt, err := waitAcked(s.conn, valid, invalid, w.end.Add(drainTimeout))
	<-readerDone
	o.end(s)
	if err != nil {
		return err
	}

	lat, unmatched := matchCurve(w.due, o.smp.curve)
	o.persistAt = w.due[:len(lat)]
	o.persistLat = make([]float64, len(lat))
	for i, ns := range lat {
		o.persistLat[i] = float64(ns) / 1e6
	}
	o.writeAt, o.writeLat = o.persistAt, o.persistLat
	if interval == 0 {
		// A saturating source does not wait for persistence: it waits for
		// room in its window and for Emit. The persistence latency is about
		// window ÷ throughput, which follows whatever CPU the host grants.
		o.writeAt, o.writeLat = w.emitAt, make([]float64, len(w.waitNs))
		for i, ns := range w.waitNs {
			o.writeLat[i] = ns / 1e6
		}
	}
	o.rateAt, o.rateVal = curveIncrements(o.smp.curve)
	o.t.fail("record never persisted", int64(unmatched))
	o.t.fail("emit failed", w.emitErrs)
	o.records = valid
	o.writeSecs = doneAt.Sub(t0).Seconds()
	o.span = doneAt.Sub(t0).Nanoseconds()
	o.late = w.late
	o.emitNs = w.emitNs
	if r := o.read; r != nil {
		o.phaseLookups = len(r.lat)
		o.late = append(o.late, r.late...)
		mergeTally(&o.t, &r.t)
	}

	// Correctness gate: the stored records equal the valid emitted ones
	// (replaced keys hold their last version), the soft failures are
	// exactly the injected invalid records, and the indexes agree.
	checkCount("soft failures differ from injected invalid records", invalid, s.conn.Metrics.SoftFailures.Value(), &o.t)
	return s.verify(b.want, b.replaced, &o.t)
}

func mergeTally(dst, src *tally) {
	dst.ok(src.attempted - src.failed)
	for reason, n := range src.reasons {
		dst.fail(reason, n)
	}
}

// insertStmt: one node, one client in a closed loop, each statement an
// `insert into dataset Tweets ([20 records])` through Instance.Exec.
func insertStmt() *workload {
	return &workload{
		nodes: 1,
		prepare: func(b *bench) {
			g := tweetgen.NewGenerator(b.genSeed(), 0)
			b.feed = &input{}
			for i := 0; i < stmtsPerSecond*b.seconds; i++ {
				recs := make([]*adm.Record, stmtBatch)
				for j := range recs {
					recs[j] = g.Next()
					b.feed.add(recs[j], true)
				}
				b.stmts = append(b.stmts, statement(recs))
			}
			b.want = wantOf(b.feed)
			// The probes' share; the statements carry the rest.
			b.feed.recs = append([][]byte(nil), b.feed.recs[:probeRecords]...)
		},
		setup: func(*bench, *system, *tracer) (time.Duration, error) { return 0, nil },
		run:   runStatements,
		probe: func(b *bench) *input { return b.feed },
	}
}

// statement renders recs as one insert statement, as a client would send it.
func statement(recs []*adm.Record) string {
	var sb strings.Builder
	sb.WriteString("use dataverse feeds; insert into dataset Tweets ([")
	for i, r := range recs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(r.String())
	}
	sb.WriteString("]);")
	return sb.String()
}

// runStatements is insert_stmt's timed phase: the stmtsPerSecond ×
// --seconds pre-rendered statements, back to back.
func runStatements(b *bench, s *system, tr *tracer, o *outcome) error {
	var inExec time.Duration
	t0 := o.begin(s)
	prev := t0
	for i, src := range b.stmts {
		start := time.Now()
		o.late = append(o.late, float64(start.Sub(prev).Nanoseconds())/1e6)
		res, err := s.inst.Exec(src)
		prev = time.Now()
		d := prev.Sub(start)
		inExec += d
		tr.add("Instance.Exec", start, prev, -1, int64(i))
		o.writeAt = append(o.writeAt, start.Sub(t0).Nanoseconds())
		o.writeLat = append(o.writeLat, float64(d.Nanoseconds())/1e6)
		o.rateAt = append(o.rateAt, start.Sub(t0).Nanoseconds())
		o.rateVal = append(o.rateVal, d.Seconds())
		ok := err == nil && len(res) == 2 && res[1].Value == adm.Int64(stmtBatch)
		o.t.check(ok, "statement failed")
		if ok {
			o.records += stmtBatch
		}
	}
	o.end(s)
	o.writeSecs = inExec.Seconds()
	o.persistAt, o.persistLat = o.writeAt, o.writeLat
	o.span = prev.Sub(t0).Nanoseconds()
	return s.verify(b.want, nil, &o.t)
}

// describe is the one-line shape of a workload for the report.
func (b *bench) describe() string {
	switch b.workload {
	case "feed_steady":
		return fmt.Sprintf("1 node, open loop %d rec/s for %d s, new keys", steadyRate, b.seconds)
	case "feed_saturate":
		return fmt.Sprintf("2 nodes, %d records of new keys as fast as Emit returns with at most %d in flight, 1 in %d invalid",
			saturateRate*b.seconds, saturateWindow, badEvery)
	case "upsert_lookup":
		return fmt.Sprintf("1 node, %d preloaded, open loop %d rec/s (half replace a preloaded key, each key once) + %d lookups/s for %d s",
			preloadCount, upsertRate, lookupRate, b.seconds)
	default:
		return fmt.Sprintf("1 node, closed loop of %d %d-record insert statements", stmtsPerSecond*b.seconds, stmtBatch)
	}
}
