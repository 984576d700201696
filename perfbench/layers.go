package main

import "fmt"

// perLayer lists the per-layer metrics a traced run reports. Sources are
// either registry/Connection readings of the real pipeline, taken as
// deltas over the timed phase, or probes (probes.go).
var perLayer = []metricDef{
	{"write_rps", "1/s"},
	{"read_p50_us", "us"},
	{"persist_p50_ms", "ms"},
	{"heap_peak_mb", "MB"},
	{"core.emit_ns_p50", "ns"},
	{"core.emit_ns_p99", "ns"},
	{"core.queue_wait_p50_ms", "ms"},
	{"core.queue_wait_p99_ms", "ms"},
	{"core.backlog_max", "count"},
	{"core.soft_failures", "count"},
	{"core.replayed", "count"},
	{"core.store_errors", "count"},
	{"core.connect_ms", "ms"},
	{"core.stale_replaced_keys", "count"},
	{"hyracks.frames", "count"},
	{"hyracks.records_per_frame", "count"},
	{"hyracks.hop_us_per_frame", "us"},
	{"hyracks.job_ms", "ms"},
	{"adm.encode_ns_per_rec", "ns"},
	{"adm.encode_allocs_per_rec", "count"},
	{"adm.validate_ns_per_rec", "ns"},
	{"adm.validate_allocs_per_rec", "count"},
	{"adm.decode_ns_per_rec", "ns"},
	{"adm.decode_allocs_per_rec", "count"},
	{"storage.insert_frame_ns_per_rec", "ns"},
	{"storage.insert_frame_self_ns_per_rec", "ns"},
	{"storage.replace_frame_ns_per_rec", "ns"},
	{"storage.bad_frame_ns_per_rec", "ns"},
	{"storage.lookup_us_p50", "us"},
	{"storage.lookup_us_p99", "us"},
	{"lsm.apply_batch_ns_per_rec", "ns"},
	{"lsm.get_ns_hit", "ns"},
	{"lsm.get_ns_miss", "ns"},
	{"lsm.group_commit_ms", "ms"},
	{"lsm.wal_bytes_per_rec", "B"},
	{"lsm.flushes", "count"},
	{"lsm.merges", "count"},
	{"lsm.write_stalls", "count"},
	{"lsm.cache_hit_ratio", "ratio"},
	{"lsm.block_reads_per_op", "count"},
	{"governor.admit_ns", "ns"},
	{"governor.delays", "count"},
	{"governor.pressure_max_permille", "count"},
	{"governor.tracked_bytes_max", "B"},
	{"aql.parse_us_per_stmt", "us"},
	{"exec.stmt_us", "us"},
	{"exec.self_us", "us"},
	{"metrics.latency_record_ns", "ns"},
	{"go.allocs_per_rec", "count"},
	{"go.alloc_bytes_per_rec", "B"},
	{"go.gc_cpu_frac", "ratio"},
	{"tail.write_p99_ms", "ms"},
	{"tail.read_p99_us", "us"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.gen_late_max_ms", "ms"},
	{"bench.poll_us", "us"},
	{"bench.harness_cpu_us_per_rec", "us"},
	{"trace.overhead_frac", "ratio"},
}

func perLayerValues(b *bench, s *system, w *workload, o *outcome, tr *tracer, connects []float64) (map[string]float64, error) {
	m, err := runProbes(b, s, o, tr, w.probe(b))
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	// core: from the real pipeline where the workload runs a feed,
	// otherwise from a probe feed.
	conn, emitNs, backlogMax := s.conn, o.emitNs, o.smp.backlogMax
	if conn == nil {
		pi, err := newProbeInput(w.probe(b))
		if err != nil {
			return nil, err
		}
		conn, emitNs, backlogMax, err = coreProbe(s, pi, tr)
		if err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		connects = []float64{float64(s.connectDur.Nanoseconds()) / 1e6}
	}
	emit := summarize(append([]float64(nil), emitNs...))
	m["core.emit_ns_p50"], m["core.emit_ns_p99"] = emit.P50, emit.Tail
	m["core.queue_wait_p50_ms"] = float64(conn.Metrics.IngestionLatency.Quantile(0.5).Nanoseconds()) / 1e6
	m["core.queue_wait_p99_ms"] = float64(conn.Metrics.IngestionLatency.Quantile(0.99).Nanoseconds()) / 1e6
	m["core.backlog_max"] = float64(backlogMax)
	m["core.soft_failures"] = float64(conn.Metrics.SoftFailures.Value())
	m["core.replayed"] = float64(conn.Metrics.Replayed.Value())
	m["core.store_errors"] = float64(conn.Metrics.StoreErrors.Value())
	m["core.connect_ms"] = median(connects)
	if m["core.stale_replaced_keys"], err = orderProbe(b, tr); err != nil {
		return nil, fmt.Errorf("order probe: %w", err)
	}

	// Registry deltas over the timed phase.
	d := func(name string) float64 { return float64(o.regAfter[name] - o.regBefore[name]) }
	recs := float64(max(o.records, 1))
	ops := recs + float64(o.phaseLookups)
	m["hyracks.frames"] = d("frames")
	m["hyracks.records_per_frame"] = d("records") / max(d("frames"), 1)
	m["lsm.wal_bytes_per_rec"] = d("lsm.wal_bytes") / recs
	m["lsm.flushes"] = d("lsm.flushes")
	m["lsm.merges"] = d("lsm.merges")
	m["lsm.write_stalls"] = d("lsm.write_stalls")
	m["lsm.cache_hit_ratio"] = d("lsm.cache.hits") / max(d("lsm.cache.hits")+d("lsm.cache.misses"), 1)
	m["lsm.block_reads_per_op"] = d("lsm.block_reads") / ops
	m["governor.delays"] = d("governor.delays")
	m["governor.pressure_max_permille"] = float64(o.smp.pressureMax)
	m["governor.tracked_bytes_max"] = float64(o.smp.trackedMax)

	g0, g1 := o.goBefore, o.goAfter
	m["go.allocs_per_rec"] = float64(g1.allocs-g0.allocs) / recs
	m["go.alloc_bytes_per_rec"] = float64(g1.allocBytes-g0.allocBytes) / recs
	m["go.gc_cpu_frac"] = (g1.gcCPU - g0.gcCPU) / max(g1.totalCPU-g0.totalCPU, 1e-9)

	e2e := endToEndValues(o, 0)
	m["tail.write_p99_ms"], m["write_rps"], m["heap_peak_mb"] = e2e["write_p99_ms"], e2e["write_rps"], e2e["heap_peak_mb"]
	m["read_p50_us"], m["tail.read_p99_us"] = m["storage.lookup_us_p50"], m["storage.lookup_us_p99"]
	if o.read != nil {
		m["read_p50_us"], m["tail.read_p99_us"] = e2e["read_p50_us"], e2e["read_p99_us"]
	}
	m["persist_p50_ms"] = windowed(o.persistAt, o.persistLat, o.span, median)
	late := summarize(append([]float64(nil), o.late...))
	m["bench.gen_late_p99_ms"], m["bench.gen_late_max_ms"] = late.Tail, late.Max
	m["bench.poll_us"] = o.smp.pollMicros()
	m["bench.harness_cpu_us_per_rec"] = float64(o.harnessCPU().Nanoseconds()) / 1e3 / recs
	return m, nil
}
