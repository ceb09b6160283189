package main

import (
	"dora/internal/buffer"
	"dora/internal/dora"
	"dora/internal/harness"
	"dora/internal/lockmgr"
	"dora/internal/metrics"
	"dora/internal/wal"
	"dora/internal/workload/tm1"
	"dora/internal/workload/tpcb"
	"dora/internal/workload/tpcc"
)

// Metric is one reported number. Value is the headline (a median where there
// are repeated samples); Q1 and Q3 are the quartiles of those samples and N
// their count. A metric that does not apply to the workload has N = 0.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     uint64  `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// endToEndMetrics are the metrics a user of the system sees, in report order.
var endToEndMetrics = [][2]string{
	{"tps", "1/s"}, {"p50_us", "us"}, {"p99_us", "us"}, {"cpu_us_per_txn", "us"},
	{"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

// probeMetrics are the per-layer metrics package probes measures.
var probeMetrics = [][2]string{
	{"dora.hop_ns", "ns"}, {"dora.rvp_ns", "ns"}, {"dora.txn_start_allocs", "count"},
	{"lockmgr.acquire_release_ns", "ns"},
	{"engine.probe_ns", "ns"}, {"engine.update_ns", "ns"}, {"engine.insert_ns", "ns"},
	{"engine.commit_ns", "ns"}, {"engine.snapshot_scan_ns_per_row", "ns"},
	{"btree.search_ns", "ns"}, {"btree.insert_ns", "ns"}, {"btree.scan_ns_per_entry", "ns"},
	{"storage.tuple_encode_ns", "ns"}, {"storage.tuple_decode_ns", "ns"}, {"storage.key_encode_ns", "ns"},
	{"buffer.fetch_hit_ns", "ns"}, {"latch.acquire_ns", "ns"},
	{"wal.append_ns", "ns"}, {"wal.append_par_ns", "ns"},
	{"wal.commit_flush_mem_us", "us"}, {"wal.commit_flush_file_us", "us"},
}

// counterMetrics are the per-layer metrics read from the layers' exported
// counters across the traced run, or derived from them.
var counterMetrics = [][2]string{
	{"dora.actions_per_txn", "count"}, {"dora.local_locks_per_txn", "count"}, {"dora.blocked_share", "ratio"},
	{"dora.msgs_per_drain", "count"}, {"dora.secondaries_per_txn", "count"}, {"dora.forwarded_per_txn", "count"},
	{"dora.critpath_us", "us"}, {"dora.rvp_thread_us", "us"}, {"dora.lock_hold_us", "us"},
	{"dora.overhead_share", "ratio"}, {"dora.max_queue_depth", "count"},
	{"lockmgr.acquisitions_per_txn", "count"}, {"lockmgr.wait_share", "ratio"},
	{"lockmgr.deadlocks_per_ktxn", "count"}, {"lockmgr.time_share", "ratio"},
	{"engine.accesses_per_txn", "count"}, {"engine.snapshot_reads_per_txn", "count"},
	{"engine.chain_len_mean", "count"}, {"engine.prune_lag_mean", "count"},
	{"engine.checkpoint_ms", "ms"}, {"engine.recovery_s", "s"}, {"engine.recovery_records", "count"},
	{"buffer.hit_rate", "ratio"}, {"buffer.evictions", "count"},
	{"wal.appends_per_txn", "count"}, {"wal.bytes_per_txn", "B"}, {"wal.appends_per_group", "count"},
	{"wal.commits_per_flush", "count"}, {"wal.flushes_per_txn", "count"}, {"wal.syncs_per_txn", "count"},
	{"wal.append_wait_us", "us"}, {"wal.device_write_us", "us"}, {"wal.fsync_us", "us"}, {"wal.flush_retries", "count"},
	{"workload.input_abort_share", "ratio"},
	{"process.allocs_per_txn", "count"}, {"process.alloc_kb_per_txn", "kB"},
	{"process.gc_pause_ms", "ms"}, {"process.heap_end_mb", "MB"},
	{"budget.dora_us", "us"}, {"budget.lockmgr_us", "us"}, {"budget.engine_us", "us"},
	{"budget.wal_us", "us"}, {"budget.residual_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// txnKinds are the transaction kinds a txn.<Kind>.p50_us / p99_us pair is
// reported for: TM1's seven, TPC-C's five and TPC-B's one.
var txnKinds = []string{
	tm1.GetSubscriberData, tm1.GetAccessData, tm1.GetNewDestination, tm1.UpdateLocation,
	tm1.UpdateSubscriberData, tm1.InsertCallForwarding, tm1.DeleteCallForwarding,
	tpcc.NewOrder, tpcc.Payment, tpcc.OrderStatus, tpcc.Delivery, tpcc.StockLevel,
	tpcb.AccountUpdate,
}

// perLayerMetrics is every per-layer metric name with its unit, in report
// order.
func perLayerMetrics() [][2]string {
	all := append([][2]string{}, probeMetrics...)
	all = append(all, counterMetrics...)
	for _, k := range txnKinds {
		all = append(all, [2]string{"txn." + k + ".p50_us", "us"}, [2]string{"txn." + k + ".p99_us", "us"})
	}
	return all
}

// counters is a snapshot of the layers' exported cumulative counters.
type counters struct {
	dora  dora.Stats
	lock  lockmgr.Stats
	buf   buffer.Stats
	flush wal.FlushStats
	lsn   wal.LSN
}

func snapshot(b *harness.Bench) counters {
	c := counters{
		lock:  b.Engine.LockManager().Stats(),
		buf:   b.Engine.BufferPool().Stats(),
		flush: b.Engine.Log().FlushStats(),
		lsn:   b.Engine.Log().CurrentLSN(),
	}
	if b.DORA != nil {
		c.dora = b.DORA.Stats()
	}
	return c
}

// traced is everything the traced run observed from outside the program.
type traced struct {
	seg           *segment
	kinds         []string // names of seg.kinds, in the mix's order
	before, after counters
	col           *metrics.Collector
	accesses      uint64 // engine trace-hook events
	maxQueueDepth int
}

// ratio is a/b, and 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of one workload: counter deltas
// over the traced run per committed transaction, the probes' unit costs, the
// budget that multiplies the two, and the per-kind latencies. off is the
// untraced segment that ran just before the traced one.
func layerMetrics(s spec, off *segment, tr traced, probed []Metric, rec recovery) []Metric {
	values := map[string]Metric{}
	set := func(name string, value float64, n uint64) {
		values[name] = Metric{Name: name, Value: value, Q1: value, Q3: value, N: n}
	}
	for _, m := range probed {
		values[m.Name] = m
	}

	on := tr.seg
	txns := float64(on.committed)
	per := func(name string, delta uint64) { set(name, ratio(float64(delta), txns), on.committed) }
	// share reports part ÷ whole with the whole as its sample count.
	share := func(name string, part, whole uint64) { set(name, ratio(float64(part), float64(whole)), whole) }
	d0, d1 := tr.before.dora, tr.after.dora
	per("dora.actions_per_txn", d1.ActionsExecuted-d0.ActionsExecuted)
	per("dora.local_locks_per_txn", d1.LocalLockAcquisitions-d0.LocalLockAcquisitions)
	share("dora.blocked_share", d1.ActionsBlocked-d0.ActionsBlocked, d1.ActionsExecuted-d0.ActionsExecuted)
	share("dora.msgs_per_drain", d1.MessagesProcessed-d0.MessagesProcessed, d1.BatchesDrained-d0.BatchesDrained)
	per("dora.secondaries_per_txn", (d1.SecondariesParallel+d1.SecondariesInline)-(d0.SecondariesParallel+d0.SecondariesInline))
	per("dora.forwarded_per_txn", d1.ActionsForwarded-d0.ActionsForwarded)
	hist := func(name string, h metrics.HistogramSnapshot) { set(name, h.Mean(), h.Count) }
	hist("dora.critpath_us", tr.col.CriticalPath())
	hist("dora.rvp_thread_us", tr.col.RVPThreadTime())
	hist("dora.lock_hold_us", tr.col.LockHold())
	if s.system == harness.DORA {
		set("dora.max_queue_depth", float64(tr.maxQueueDepth), 1)
	}

	// Whatever the clients' busy time holds beyond what the layers accounted
	// is work, as in harness.Bench.Run; the shares are of that total.
	if accounted := tr.col.Breakdown().Total; on.busy > accounted {
		tr.col.AddTime(metrics.Work, on.busy-accounted)
	}
	shares := tr.col.Breakdown()
	set("dora.overhead_share", shares.Fractions[metrics.DORA], on.committed)
	set("lockmgr.time_share", shares.Fractions[metrics.LockMgr]+shares.Fractions[metrics.LockMgrContention], on.committed)

	l0, l1 := tr.before.lock, tr.after.lock
	per("lockmgr.acquisitions_per_txn", l1.Acquisitions-l0.Acquisitions)
	share("lockmgr.wait_share", l1.Waits-l0.Waits, l1.Acquisitions-l0.Acquisitions)
	set("lockmgr.deadlocks_per_ktxn", 1000*ratio(float64(l1.Deadlocks-l0.Deadlocks), txns), on.committed)

	per("engine.accesses_per_txn", tr.accesses)
	per("engine.snapshot_reads_per_txn", tr.col.SnapshotReads())
	hist("engine.chain_len_mean", tr.col.ChainLength())
	hist("engine.prune_lag_mean", tr.col.PruneLag())
	if s.durable {
		set("engine.checkpoint_ms", rec.checkpoint.Seconds()*1e3, 1)
		set("engine.recovery_s", rec.recovery.Seconds(), 1)
		set("engine.recovery_records", float64(rec.records), 1)
	}

	b0, b1 := tr.before.buf, tr.after.buf
	share("buffer.hit_rate", b1.Hits-b0.Hits, (b1.Hits-b0.Hits)+(b1.Misses-b0.Misses))
	set("buffer.evictions", float64(b1.Evictions-b0.Evictions), 1)

	f0, f1 := tr.before.flush, tr.after.flush
	per("wal.appends_per_txn", f1.Appends-f0.Appends)
	per("wal.bytes_per_txn", uint64(tr.after.lsn-tr.before.lsn)) // LSNs are byte offsets
	share("wal.appends_per_group", f1.Appends-f0.Appends, f1.Groups-f0.Groups)
	share("wal.commits_per_flush", f1.CommitsFlushed-f0.CommitsFlushed, f1.Flushes-f0.Flushes)
	per("wal.flushes_per_txn", f1.Flushes-f0.Flushes)
	per("wal.syncs_per_txn", f1.Syncs-f0.Syncs)
	hist("wal.append_wait_us", tr.col.AppendWait())
	hist("wal.device_write_us", tr.col.DeviceWriteLatency())
	hist("wal.fsync_us", tr.col.FsyncLatency())
	set("wal.flush_retries", float64(f1.Retries-f0.Retries), 1)

	share("workload.input_abort_share", on.inputAborts, on.attempted)

	// The Go runtime's counters over the untraced segment, so that the
	// benchmark's own spans are not in them.
	offTxns := float64(off.committed)
	set("process.allocs_per_txn", ratio(float64(off.mem.mallocs), offTxns), off.committed)
	set("process.alloc_kb_per_txn", ratio(float64(off.mem.allocBytes)/1024, offTxns), off.committed)
	set("process.gc_pause_ms", off.mem.gcPause.Seconds()*1e3, 1)
	set("process.heap_end_mb", float64(off.mem.heapEnd)/(1<<20), 1)

	// Budget: counter per transaction × the probe's unit cost, per layer.
	// See README.md for what each line leaves out.
	v := func(name string) float64 { return values[name].Value }
	flushUS := v("wal.commit_flush_mem_us")
	if s.durable {
		flushUS = v("wal.commit_flush_file_us")
	}
	// A no-op DORA transaction still begins and commits an engine
	// transaction: three marker appends and one flush hand-off, which the
	// wal line already counts.
	hopUS := max(0, v("dora.hop_ns")-3*v("wal.append_ns")-1e3*v("wal.commit_flush_mem_us")) / 1e3
	dataRecords := max(0, v("wal.appends_per_txn")-3)
	budget := map[string]float64{
		"budget.dora_us":    v("dora.actions_per_txn") * hopUS,
		"budget.lockmgr_us": v("lockmgr.acquisitions_per_txn") * v("lockmgr.acquire_release_ns") / 1e3,
		"budget.engine_us": (v("engine.accesses_per_txn")*v("engine.probe_ns") +
			dataRecords*max(0, v("engine.update_ns")-v("engine.probe_ns")) +
			v("engine.snapshot_reads_per_txn")*v("engine.snapshot_scan_ns_per_row")) / 1e3,
		"budget.wal_us": v("wal.appends_per_txn")*v("wal.append_ns")/1e3 + flushUS,
	}
	sum := 0.0
	for name, us := range budget {
		set(name, us, on.committed)
		sum += us
	}
	// The counts are the traced segment's (they do not depend on its speed);
	// the time they are held against is the untraced segment's, like the
	// probes' unit costs.
	meanUS := off.lat.Mean() / 1e3
	set("budget.residual_pct", 100*ratio(meanUS-sum, meanUS), off.committed)

	// Tracing overhead: throughput lost between the untraced segment and the
	// traced one that followed it.
	offTPS, onTPS := ratio(float64(off.committed), off.elapsed.Seconds()), ratio(float64(on.committed), on.elapsed.Seconds())
	set("trace.overhead_pct", 100*ratio(offTPS-onTPS, offTPS), off.committed)

	for i, k := range tr.kinds {
		h := &on.kinds[i]
		if h.Count() > 0 {
			set("txn."+k+".p50_us", h.Quantile(0.50)/1e3, h.Count())
			set("txn."+k+".p99_us", h.Quantile(0.99)/1e3, h.Count())
		}
	}

	out := make([]Metric, 0, len(values))
	for _, nu := range perLayerMetrics() {
		m := values[nu[0]] // the zero Metric (N = 0) when it does not apply
		m.Name, m.Unit = nu[0], nu[1]
		if m.N == 0 {
			m.Note = "does not apply to this workload"
		}
		out = append(out, m)
	}
	return out
}
