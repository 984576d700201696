package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"asterixfeeds"
	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/storage"
)

const (
	dataverse = "feeds"
	dataset   = "Tweets"
	feedName  = "TweetFeed"
	// policy: every feed workload acknowledges records end to end, so the
	// run can wait for PendingAcks()==0 before it checks what was stored.
	policy = "AtLeastOnce"
	// pollInterval is the sampler's period: it reads the connection's
	// persisted counter this often to build the completion curve, and
	// every heavyEvery-th poll it also reads heap and registry gauges.
	pollInterval = 200 * time.Microsecond
	heavyEvery   = 25
)

// ddl declares the TweetGen schema: primary key id and one btree secondary
// index on country. country is typed string, so a record whose country is an
// int fails validation (the injected soft failures of feed_saturate).
const ddl = `
create dataverse feeds;
use dataverse feeds;
create type TwitterUser as open {
	screen_name: string, lang: string, friends_count: int32,
	statuses_count: int32, name: string, followers_count: int32
};
create type Tweet as open {
	id: string, user: TwitterUser, latitude: double?, longitude: double?,
	created_at: string, message_text: string, country: string?
};
create dataset Tweets(Tweet) primary key id;
create index countryIdx on Tweets(country);
`

// system is one booted instance with the Tweets dataset.
type system struct {
	inst  *asterixfeeds.Instance
	dir   string
	nodes []string
	conn  *core.Connection // nil when the workload has no feed
	src   *feedSource
	// connectDur is the ConnectFeed call's duration.
	connectDur time.Duration
}

// boot starts an instance with nodes nodes under dir and declares the
// schema. Every run uses SyncWAL 0: an acknowledgement means the record is
// in the WAL and memtable, not fsynced.
func boot(dir string, nodes int) (*system, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("nc%d", i+1)
	}
	inst, err := asterixfeeds.Start(asterixfeeds.Config{
		Nodes:   names,
		DataDir: dir,
		LSM:     lsm.Options{SyncWAL: 0},
		// The failure detector gets the same load-tolerant timeout as the
		// experiments harness: a 2-CPU host saturated by ingestion can miss
		// the default 120 ms, and a false node death would end the run.
		Hyracks: hyracks.Config{HeartbeatInterval: 20 * time.Millisecond, HeartbeatTimeout: 500 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	s := &system{inst: inst, dir: dir, nodes: names}
	if _, err := inst.Exec(ddl); err != nil {
		s.close()
		return nil, fmt.Errorf("ddl: %w", err)
	}
	return s, nil
}

func (s *system) close() {
	_ = s.inst.Close()
	_ = os.RemoveAll(s.dir)
}

func (s *system) ds() *storage.Dataset { return s.dataset(dataset) }

func (s *system) dataset(name string) *storage.Dataset {
	ds, _ := s.inst.Catalog().Dataset(dataverse, name)
	return ds
}

// partitions returns every partition of the Tweets dataset.
func (s *system) partitions() ([]*storage.Partition, error) { return s.partitionsOf(dataset) }

// partitionsOf returns every partition of dataset name.
func (s *system) partitionsOf(name string) ([]*storage.Partition, error) {
	ds := s.dataset(name)
	out := make([]*storage.Partition, len(ds.NodeGroup))
	for i, n := range ds.NodeGroup {
		sm, err := s.inst.StorageManager(n)
		if err != nil {
			return nil, err
		}
		out[i] = sm.PartitionIdx(ds.QualifiedName(), i)
		if out[i] == nil {
			return nil, fmt.Errorf("partition %d of %s not open on %s", i, ds.QualifiedName(), n)
		}
	}
	return out, nil
}

// partitionOf returns the partition holding the record with primary key id.
func (s *system) partitionOf(parts []*storage.Partition, id string) *storage.Partition {
	if len(parts) == 1 {
		return parts[0]
	}
	rec := (&adm.RecordBuilder{}).Add("id", adm.String(id)).MustBuild()
	i, err := s.ds().PartitionOf(rec)
	if err != nil {
		return parts[0]
	}
	return parts[i]
}

// feedSource is the benchmark's adaptor: a core.InProcessAdaptor whose
// generator waits for the timed phase to start, runs the workload's load
// loop against the sink, and then idles until the feed is torn down.
type feedSource struct {
	start    chan struct{}
	done     chan struct{}
	doneOnce sync.Once
	run      func(sink core.RecordSink, stop <-chan struct{})
}

func (f *feedSource) gen(_ int, sink core.RecordSink, stop <-chan struct{}) error {
	select {
	case <-f.start:
	case <-stop:
		return nil
	}
	f.run(sink, stop)
	f.doneOnce.Do(func() { close(f.done) })
	<-stop
	return nil
}

// begin starts the timed phase: the adaptor starts running its load loop.
func (f *feedSource) begin() { close(f.start) }

// connectFeed registers a benchmark adaptor for feed, declares the feed
// and connects it to dataset ds under the AtLeastOnce policy. The adaptor
// emits what the returned source's run function emits.
func (s *system) connectFeed(feed, ds string, tr *tracer) (*core.Connection, *feedSource, error) {
	src := &feedSource{start: make(chan struct{}), done: make(chan struct{})}
	alias := "perfbench_" + feed
	s.inst.Feeds().Adaptors().Register(alias, func(map[string]string) (core.ConfiguredAdaptor, error) {
		return &core.InProcessAdaptor{Gen: src.gen, Parallelism: 1, Push: true}, nil
	})
	err := s.inst.Catalog().CreateFeed(&metadata.FeedDecl{
		Dataverse: dataverse, Name: feed, Primary: true, AdaptorName: alias,
	})
	if err != nil {
		return nil, nil, err
	}
	t := time.Now()
	conn, err := s.inst.Feeds().ConnectFeed(dataverse, feed, ds, policy)
	end := time.Now()
	s.connectDur = end.Sub(t)
	tr.add("core.ConnectFeed", t, end, -1, 0)
	return conn, src, err
}

// completed counts the records conn has finished with: persisted or
// rejected as soft failures.
func completed(conn *core.Connection) func() int64 {
	return func() int64 { return conn.Metrics.Persisted.Total() + conn.Metrics.SoftFailures.Value() }
}

// waitAcked waits until conn has persisted at least want records, counted
// soft failures at least soft, and holds no unacknowledged record. It
// returns when that happened, or an error at the deadline.
func waitAcked(conn *core.Connection, want, soft int64, deadline time.Time) (time.Time, error) {
	m := conn.Metrics
	for {
		if m.Persisted.Total() >= want && m.SoftFailures.Value() >= soft && conn.PendingAcks() == 0 {
			return time.Now(), nil
		}
		if st := conn.State(); st == core.ConnFailed {
			return time.Time{}, fmt.Errorf("connection failed: %v", conn.Err())
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("timed out: persisted %d of %d, soft failures %d of %d, pending acks %d",
				m.Persisted.Total(), want, m.SoftFailures.Value(), soft, conn.PendingAcks())
		}
		time.Sleep(time.Millisecond)
	}
}

// settle waits, until deadline at most, for every partition's queued flushes
// and merges to finish.
func (s *system) settle(deadline time.Time) {
	parts, err := s.partitions()
	if err != nil {
		return
	}
	for _, p := range parts {
		for st := p.Stats(); (st.Immutables > 0 || st.CompactionDebt > 0) && time.Now().Before(deadline); st = p.Stats() {
			time.Sleep(time.Millisecond)
		}
	}
}

// digest identifies a record's content.
func digest(enc []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(enc)
	return h.Sum64()
}

// recordID returns a record's id field.
func recordID(rec *adm.Record) string {
	v, ok := rec.Field("id")
	if !ok {
		return ""
	}
	s, _ := v.(adm.String)
	return string(s)
}

// storedDigests scans every partition of dataset name into id → content
// digest.
func (s *system) storedDigests(name string) (map[string]uint64, error) {
	parts, err := s.partitionsOf(name)
	if err != nil {
		return nil, err
	}
	got := make(map[string]uint64)
	for _, p := range parts {
		err := p.Scan(func(rec *adm.Record) bool {
			got[recordID(rec)] = digest(adm.Encode(rec))
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return got, nil
}

// verify runs the correctness gate shared by every workload: the stored
// records equal want (id → digest), and every partition's secondary index
// agrees with its primary. replaced lists every version sent for the keys
// the run replaced, so that a key left at an earlier one is named as such.
func (s *system) verify(want map[string]uint64, replaced map[string][]uint64, t *tally) error {
	got, err := s.storedDigests(dataset)
	if err != nil {
		return err
	}
	checkStored(want, got, replaced, t)
	parts, err := s.partitions()
	if err != nil {
		return err
	}
	for _, p := range parts {
		t.check(p.VerifyIndexes() == nil, "index verification failed")
	}
	return nil
}

// lookupOK reports whether a Lookup of id returned that record with the
// expected content.
func lookupOK(id string, want uint64, rec *adm.Record, found bool, err error) bool {
	return err == nil && found && recordID(rec) == id && digest(adm.Encode(rec)) == want
}

// cpuTime is the process's user plus system CPU time so far. Unlike wall
// time it does not advance while the host runs someone else's work.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the calling OS thread's CPU time so far. A goroutine locked
// to its thread (runtime.LockOSThread) reads its own CPU time with it.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, _ = syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// harnessCPU adds up the CPU time a load goroutine spends on the benchmark's
// own work (pacing, recording, checking answers) between the calls it makes
// into the system, so that cpu_us_per_rec can leave that work out. The
// goroutine must be locked to its OS thread while it measures.
type harnessCPU struct {
	spent, from time.Duration
}

func (h *harnessCPU) begin() { h.from = threadCPU() }
func (h *harnessCPU) end()   { h.spent += threadCPU() - h.from }

// runtimeSample names the Go runtime readings the benchmark takes.
var runtimeSample = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

type goStats struct {
	heapLive, allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU                        float64
}

func readGo() goStats {
	s := make([]metrics.Sample, len(runtimeSample))
	copy(s, runtimeSample)
	metrics.Read(s)
	return goStats{
		heapLive:   s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
		gcCycles:   s[5].Value.Uint64(),
	}
}

// sampler is the benchmark's one sleeping sampler goroutine. It builds the
// completion curve from the connection's persisted counter and tracks the
// peaks of heap, backlog and governor gauges during the timed phase.
type sampler struct {
	sys   *system
	t0    time.Time
	stop  chan struct{}
	done  chan struct{}
	curve []curvePoint
	polls int
	last  time.Time
	cpu   time.Duration // the sampler's own CPU time: all of it is the harness's

	heapAt                              []int64
	heapMB                              []float64
	backlogMax, pressureMax, trackedMax int64
}

// newSampler allocates a sampler's records for a phase of about seconds s.
func newSampler(seconds int) *sampler {
	polls := int(time.Duration(seconds+10) * time.Second / pollInterval)
	return &sampler{stop: make(chan struct{}), done: make(chan struct{}),
		curve: make([]curvePoint, 0, polls), heapAt: make([]int64, 0, polls/heavyEvery), heapMB: make([]float64, 0, polls/heavyEvery)}
}

func (s *sampler) start(sys *system, t0 time.Time) {
	s.sys, s.t0 = sys, t0
	go s.loop()
}

func (s *sampler) loop() {
	defer close(s.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	defer func() { s.cpu = threadCPU() - cpu0 }()
	var lastDone int64 = -1
	reg := s.sys.inst.Registry()
	backlog := ""
	if s.sys.conn != nil {
		backlog = "feed." + s.sys.conn.ID() + ".backlog"
	}
	for {
		// A stop seen before this poll still gets the poll, so the curve
		// always ends with a reading taken after the phase completed.
		stopping := false
		select {
		case <-s.stop:
			stopping = true
		default:
		}
		now := time.Now()
		s.last = now
		if s.sys.conn != nil {
			if d := s.sys.conn.Metrics.Persisted.Total(); d != lastDone {
				s.curve = append(s.curve, curvePoint{At: now.Sub(s.t0).Nanoseconds(), Done: d})
				lastDone = d
			}
		}
		if s.polls%heavyEvery == 0 {
			s.heapAt = append(s.heapAt, now.Sub(s.t0).Nanoseconds())
			s.heapMB = append(s.heapMB, float64(readGo().heapLive)/(1<<20))
			if backlog != "" {
				v, _ := reg.Value(backlog)
				s.backlogMax = max(s.backlogMax, v)
			}
			for _, n := range s.sys.nodes {
				p, _ := reg.Value("node." + n + ".governor.pressure_permille")
				b, _ := reg.Value("node." + n + ".governor.tracked_bytes")
				s.pressureMax = max(s.pressureMax, p)
				s.trackedMax = max(s.trackedMax, b)
			}
		}
		s.polls++
		if stopping {
			return
		}
		sleepUntil(time.Now().Add(pollInterval))
	}
}

// finish stops the sampler and waits for it to exit.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// pollMicros is the mean interval between the sampler's polls.
func (s *sampler) pollMicros() float64 {
	if s.polls < 2 {
		return 0
	}
	return float64(s.last.Sub(s.t0).Microseconds()) / float64(s.polls-1)
}

// regSum sums a per-node registry series over the system's nodes.
func (s *system) regSum(series string) int64 {
	var n int64
	for _, node := range s.nodes {
		v, _ := s.inst.Registry().Value("node." + node + "." + series)
		n += v
	}
	return n
}

// regSeries are the per-node series read before and after a timed phase.
var regSeries = []string{
	"frames", "records", "lsm.wal_bytes", "lsm.flushes", "lsm.merges",
	"lsm.write_stalls", "lsm.cache.hits", "lsm.cache.misses", "lsm.block_reads",
	"governor.delays",
}

func (s *system) regSnapshot() map[string]int64 {
	out := make(map[string]int64, len(regSeries))
	for _, name := range regSeries {
		out[name] = s.regSum(name)
	}
	return out
}
