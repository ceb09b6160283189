// Package metrics provides the instrumentation used to reproduce the paper's
// measurements: per-component time breakdowns (useful work vs. lock-manager
// work vs. lock-manager contention), lock-acquisition censuses by lock class,
// and throughput/response-time series.
//
// The accounting model follows the paper's profiling methodology (Figures 1-3
// and 5): every worker thread attributes its wall-clock time to exactly one
// component at a time, and the lock manager separately reports how much of its
// time was spent spinning on latches (contention) versus doing useful lock
// bookkeeping.
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Component identifies where a slice of execution time was spent.
type Component int

const (
	// Work is useful transaction work outside the lock manager (record
	// access, index traversal, logging, commit processing).
	Work Component = iota
	// LockMgr is time inside the centralized lock manager doing useful
	// bookkeeping (hash probes, request-list maintenance).
	LockMgr
	// LockMgrContention is time inside the centralized lock manager spent
	// waiting: spinning on bucket latches or blocked on incompatible locks.
	LockMgrContention
	// OtherContention is contention outside the lock manager (buffer pool,
	// log manager, DORA queue latches).
	OtherContention
	// DORA is time spent in DORA's own mechanism: local lock tables, action
	// routing, RVP bookkeeping.
	DORA
	numComponents
)

// String returns the human-readable component label used in figure output.
func (c Component) String() string {
	switch c {
	case Work:
		return "Work"
	case LockMgr:
		return "LockMgr"
	case LockMgrContention:
		return "LockMgrCont"
	case OtherContention:
		return "OtherCont"
	case DORA:
		return "DORA"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// LockClass classifies acquired locks for the Figure 5 census.
type LockClass int

const (
	// RowLock is a record-level (RID) lock in the centralized manager.
	RowLock LockClass = iota
	// HigherLevelLock is any non-row centralized lock: table intention
	// locks, extent/space-management locks, database locks.
	HigherLevelLock
	// LocalLock is a DORA thread-local lock table entry.
	LocalLock
	numLockClasses
)

// String returns the census label for the lock class.
func (c LockClass) String() string {
	switch c {
	case RowLock:
		return "Row-level"
	case HigherLevelLock:
		return "Higher-level"
	case LocalLock:
		return "Thread-local"
	default:
		return fmt.Sprintf("LockClass(%d)", int(c))
	}
}

// histBucketCount is the number of power-of-two histogram buckets.
const histBucketCount = 9

// Histogram is a lock-free power-of-two histogram for small counts, such as
// executor message-batch sizes and commits coalesced per log flush. Bucket 0
// counts observations <= 1; bucket i (i >= 1) counts observations in
// (2^(i-1), 2^i]; the last bucket absorbs everything larger.
type Histogram struct {
	buckets [histBucketCount]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one observation of n.
func (h *Histogram) Observe(n int) {
	if h == nil || n < 0 {
		return
	}
	idx := 0
	for 1<<idx < n && idx < histBucketCount-1 {
		idx++
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(n))
}

// reset zeroes the histogram.
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Snapshot returns a consistent-enough copy of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time view of a Histogram.
type HistogramSnapshot struct {
	// Count and Sum are the number of observations and their total.
	Count uint64
	Sum   uint64
	// Buckets[i] counts the observations in the disjoint range
	// (BucketBound(i-1), BucketBound(i)]; bucket 0 covers <= 1 and the last
	// bucket is unbounded above.
	Buckets [histBucketCount]uint64
}

// BucketBound returns the inclusive upper bound of bucket i; the final bucket
// has no upper bound and returns 0.
func (HistogramSnapshot) BucketBound(i int) int {
	if i >= histBucketCount-1 {
		return 0
	}
	return 1 << i
}

// Mean returns the average observation, or zero when nothing was observed.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// String renders the histogram as "mean=… n=…" for summaries.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("mean=%.2f n=%d", s.Mean(), s.Count)
}

// Collector accumulates time and counter statistics for one experiment run.
// It is safe for concurrent use by many worker goroutines.
type Collector struct {
	times [numComponents]atomic.Int64
	locks [numLockClasses]atomic.Uint64
	// Inside-the-lock-manager split for Figure 3.
	acquireNanos     atomic.Int64
	acquireContNanos atomic.Int64
	releaseNanos     atomic.Int64
	releaseContNanos atomic.Int64

	committed atomic.Uint64
	aborted   atomic.Uint64
	shed      atomic.Uint64

	// Pipeline-efficiency histogram: how many messages each executor queue
	// drain served.
	execBatches Histogram

	// Durability-path latency histograms, in microseconds: devWrite is the
	// time one log-device write took (the quantity group commit amortizes),
	// fsync the time one fsync took (one per flush under SyncOnFlush, one per
	// cadence tick under SyncInterval).
	devWrite  Histogram
	fsyncHist Histogram

	// Commit-pipeline histograms: appendWait is the time one log append
	// spent from entry to having its LSN assigned (µs — the buffer-latch
	// wait), and lockHold the time a committed transaction held its local
	// locks from dispatch to completion broadcast (µs — the span early lock
	// release shortens).
	appendWait Histogram
	lockHold   Histogram

	// Flow-graph histograms, in microseconds per transaction: critPath is
	// the dispatch-to-terminal-RVP wall time (commit durability is pipelined
	// off it), rvpThread the time RVP threads spent on the transaction's
	// critical path (routing, enqueueing, inline secondary execution).
	critPath  Histogram
	rvpThread Histogram

	// Multi-version read-path instrumentation: chainLen is the version-chain
	// length of each record the pruner visited (how much history writers have
	// piled up), pruneLag the epoch distance between the visible epoch and the
	// prune watermark at each pruner pass (how far reclamation trails behind
	// commits, widened by long-lived snapshots), and snapshotReads the number
	// of record reads served from epoch-pinned snapshots without any lock- or
	// queue-manager involvement.
	chainLen      Histogram
	pruneLag      Histogram
	snapshotReads atomic.Uint64

	// boundaryMoves counts the routing-boundary moves applied during the run.
	boundaryMoves atomic.Uint64

	mu        sync.Mutex
	latencies []time.Duration
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// AddTime attributes d to component c.
func (m *Collector) AddTime(c Component, d time.Duration) {
	if m == nil || d <= 0 {
		return
	}
	m.times[c].Add(int64(d))
}

// AddLock records the acquisition of n locks of class c.
func (m *Collector) AddLock(c LockClass, n int) {
	if m == nil {
		return
	}
	m.locks[c].Add(uint64(n))
}

// AddAcquire records time spent inside lock-manager acquire, split into useful
// and contention portions (Figure 3).
func (m *Collector) AddAcquire(useful, contention time.Duration) {
	if m == nil {
		return
	}
	m.acquireNanos.Add(int64(useful))
	m.acquireContNanos.Add(int64(contention))
	m.times[LockMgr].Add(int64(useful))
	m.times[LockMgrContention].Add(int64(contention))
}

// AddRelease records time spent inside lock-manager release, split into useful
// and contention portions (Figure 3).
func (m *Collector) AddRelease(useful, contention time.Duration) {
	if m == nil {
		return
	}
	m.releaseNanos.Add(int64(useful))
	m.releaseContNanos.Add(int64(contention))
	m.times[LockMgr].Add(int64(useful))
	m.times[LockMgrContention].Add(int64(contention))
}

// ObserveExecutorBatch records the size of one executor queue drain.
func (m *Collector) ObserveExecutorBatch(n int) {
	if m == nil {
		return
	}
	m.execBatches.Observe(n)
}

// ObserveDeviceWrite records the latency of one log-device write.
func (m *Collector) ObserveDeviceWrite(d time.Duration) {
	if m == nil || d < 0 {
		return
	}
	m.devWrite.Observe(int(d.Microseconds()))
}

// ObserveFsync records the latency of one log-device fsync.
func (m *Collector) ObserveFsync(d time.Duration) {
	if m == nil || d < 0 {
		return
	}
	m.fsyncHist.Observe(int(d.Microseconds()))
}

// ObserveAppendWait records the reservation wait of one log append: entry to
// LSN assignment.
func (m *Collector) ObserveAppendWait(d time.Duration) {
	if m == nil || d < 0 {
		return
	}
	m.appendWait.Observe(int(d.Microseconds()))
}

// ObserveLockHold records how long one committed transaction held its local
// locks, dispatch to completion broadcast.
func (m *Collector) ObserveLockHold(d time.Duration) {
	if m == nil || d < 0 {
		return
	}
	m.lockHold.Observe(int(d.Microseconds()))
}

// AppendWait returns the log-append reservation-wait histogram (µs).
func (m *Collector) AppendWait() HistogramSnapshot {
	return m.appendWait.Snapshot()
}

// LockHold returns the committed-transaction lock-hold-time histogram (µs).
func (m *Collector) LockHold() HistogramSnapshot {
	return m.lockHold.Snapshot()
}

// DeviceWriteLatency returns the log-device write-latency histogram (µs).
func (m *Collector) DeviceWriteLatency() HistogramSnapshot {
	return m.devWrite.Snapshot()
}

// FsyncLatency returns the log-device fsync-latency histogram (µs).
func (m *Collector) FsyncLatency() HistogramSnapshot {
	return m.fsyncHist.Snapshot()
}

// ObserveCriticalPath records one transaction's dispatch-to-terminal-RVP
// wall time.
func (m *Collector) ObserveCriticalPath(d time.Duration) {
	if m == nil || d < 0 {
		return
	}
	m.critPath.Observe(int(d.Microseconds()))
}

// ObserveRVPThread records the RVP-thread time one transaction consumed.
func (m *Collector) ObserveRVPThread(d time.Duration) {
	if m == nil || d < 0 {
		return
	}
	m.rvpThread.Observe(int(d.Microseconds()))
}

// ObserveChainLength records the version-chain length of one record visited
// by the pruner.
func (m *Collector) ObserveChainLength(n int) {
	if m == nil {
		return
	}
	m.chainLen.Observe(n)
}

// ObservePruneLag records the visible-epoch-to-watermark distance of one
// pruner pass.
func (m *Collector) ObservePruneLag(n int) {
	if m == nil || n < 0 {
		return
	}
	m.pruneLag.Observe(n)
}

// AddSnapshotReads records n record reads served from an epoch-pinned
// snapshot.
func (m *Collector) AddSnapshotReads(n int) {
	if m == nil {
		return
	}
	m.snapshotReads.Add(uint64(n))
}

// ChainLength returns the version-chain-length histogram.
func (m *Collector) ChainLength() HistogramSnapshot {
	return m.chainLen.Snapshot()
}

// PruneLag returns the prune-lag histogram (epochs).
func (m *Collector) PruneLag() HistogramSnapshot {
	return m.pruneLag.Snapshot()
}

// SnapshotReads returns the number of snapshot record reads recorded.
func (m *Collector) SnapshotReads() uint64 { return m.snapshotReads.Load() }

// AddBoundaryMove records one applied routing-boundary move.
func (m *Collector) AddBoundaryMove() {
	if m == nil {
		return
	}
	m.boundaryMoves.Add(1)
}

// BoundaryMoves returns the number of boundary moves recorded.
func (m *Collector) BoundaryMoves() uint64 { return m.boundaryMoves.Load() }

// CriticalPath returns the per-transaction critical-path histogram (µs).
func (m *Collector) CriticalPath() HistogramSnapshot {
	return m.critPath.Snapshot()
}

// RVPThreadTime returns the per-transaction RVP-thread-time histogram (µs).
func (m *Collector) RVPThreadTime() HistogramSnapshot {
	return m.rvpThread.Snapshot()
}

// ExecutorBatches returns the executor queue-drain batch-size histogram.
func (m *Collector) ExecutorBatches() HistogramSnapshot {
	return m.execBatches.Snapshot()
}

// TxnCommitted records a committed transaction and its latency.
func (m *Collector) TxnCommitted(latency time.Duration) {
	if m == nil {
		return
	}
	m.committed.Add(1)
	m.mu.Lock()
	m.latencies = append(m.latencies, latency)
	m.mu.Unlock()
}

// TxnAborted records an aborted transaction.
func (m *Collector) TxnAborted() {
	if m == nil {
		return
	}
	m.aborted.Add(1)
}

// TxnShed records a transaction refused by the admission controller.
func (m *Collector) TxnShed() {
	if m == nil {
		return
	}
	m.shed.Add(1)
}

// Committed returns the number of committed transactions.
func (m *Collector) Committed() uint64 { return m.committed.Load() }

// Aborted returns the number of aborted transactions.
func (m *Collector) Aborted() uint64 { return m.aborted.Load() }

// Shed returns the number of transactions refused by admission control.
func (m *Collector) Shed() uint64 { return m.shed.Load() }

// Breakdown is a normalized time breakdown across components.
type Breakdown struct {
	// Fractions maps each component to its share of total attributed time;
	// the shares sum to 1 unless no time was recorded.
	Fractions map[Component]float64
	// Total is the total attributed time.
	Total time.Duration
}

// Breakdown returns the normalized component time breakdown.
func (m *Collector) Breakdown() Breakdown {
	var total int64
	vals := make([]int64, numComponents)
	for c := Component(0); c < numComponents; c++ {
		vals[c] = m.times[c].Load()
		total += vals[c]
	}
	b := Breakdown{Fractions: make(map[Component]float64, numComponents), Total: time.Duration(total)}
	for c := Component(0); c < numComponents; c++ {
		if total > 0 {
			b.Fractions[c] = float64(vals[c]) / float64(total)
		} else {
			b.Fractions[c] = 0
		}
	}
	return b
}

// LockMgrBreakdown is the inside-the-lock-manager split of Figure 3.
type LockMgrBreakdown struct {
	Acquire           float64
	AcquireContention float64
	Release           float64
	ReleaseContention float64
	Other             float64
}

// LockMgrBreakdown returns the normalized Figure 3 breakdown. The Other share
// covers lock-manager time not attributed to acquire or release (deadlock
// detection, upgrades); it is derived as the remainder of LockMgr time.
func (m *Collector) LockMgrBreakdown() LockMgrBreakdown {
	aq := float64(m.acquireNanos.Load())
	aqc := float64(m.acquireContNanos.Load())
	rl := float64(m.releaseNanos.Load())
	rlc := float64(m.releaseContNanos.Load())
	lm := float64(m.times[LockMgr].Load() + m.times[LockMgrContention].Load())
	other := lm - aq - aqc - rl - rlc
	if other < 0 {
		other = 0
	}
	total := aq + aqc + rl + rlc + other
	if total == 0 {
		return LockMgrBreakdown{}
	}
	return LockMgrBreakdown{
		Acquire:           aq / total,
		AcquireContention: aqc / total,
		Release:           rl / total,
		ReleaseContention: rlc / total,
		Other:             other / total,
	}
}

// LockCensus returns the number of locks acquired per lock class.
func (m *Collector) LockCensus() map[LockClass]uint64 {
	out := make(map[LockClass]uint64, numLockClasses)
	for c := LockClass(0); c < numLockClasses; c++ {
		out[c] = m.locks[c].Load()
	}
	return out
}

// LocksPer100Txns returns the Figure 5 metric: locks acquired per 100
// committed transactions, by class. It returns zeros when nothing committed.
func (m *Collector) LocksPer100Txns() map[LockClass]float64 {
	out := make(map[LockClass]float64, numLockClasses)
	n := float64(m.committed.Load())
	for c := LockClass(0); c < numLockClasses; c++ {
		if n > 0 {
			out[c] = float64(m.locks[c].Load()) * 100 / n
		}
	}
	return out
}

// Latencies returns a copy of all recorded commit latencies.
func (m *Collector) Latencies() []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]time.Duration, len(m.latencies))
	copy(out, m.latencies)
	return out
}

// MeanLatency returns the mean commit latency, or zero when none recorded.
func (m *Collector) MeanLatency() time.Duration {
	lats := m.Latencies()
	if len(lats) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return sum / time.Duration(len(lats))
}

// Reset clears all accumulated statistics.
func (m *Collector) Reset() {
	for c := Component(0); c < numComponents; c++ {
		m.times[c].Store(0)
	}
	for c := LockClass(0); c < numLockClasses; c++ {
		m.locks[c].Store(0)
	}
	m.acquireNanos.Store(0)
	m.acquireContNanos.Store(0)
	m.releaseNanos.Store(0)
	m.releaseContNanos.Store(0)
	m.committed.Store(0)
	m.aborted.Store(0)
	m.shed.Store(0)
	m.execBatches.reset()
	m.devWrite.reset()
	m.fsyncHist.reset()
	m.appendWait.reset()
	m.lockHold.reset()
	m.critPath.reset()
	m.rvpThread.reset()
	m.chainLen.reset()
	m.pruneLag.reset()
	m.snapshotReads.Store(0)
	m.boundaryMoves.Store(0)
	m.mu.Lock()
	m.latencies = m.latencies[:0]
	m.mu.Unlock()
}

// String renders a compact human-readable summary of the collector, suitable
// for example programs and debugging.
func (m *Collector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "committed=%d aborted=%d", m.Committed(), m.Aborted())
	b := m.Breakdown()
	if b.Total > 0 {
		sb.WriteString(" breakdown:")
		for c := Component(0); c < numComponents; c++ {
			fmt.Fprintf(&sb, " %s=%.1f%%", c, b.Fractions[c]*100)
		}
	}
	census := m.LockCensus()
	fmt.Fprintf(&sb, " locks: row=%d higher=%d local=%d",
		census[RowLock], census[HigherLevelLock], census[LocalLock])
	if eb := m.ExecutorBatches(); eb.Count > 0 {
		fmt.Fprintf(&sb, " exec-batch[%s]", eb)
	}
	if dw := m.DeviceWriteLatency(); dw.Count > 0 {
		fmt.Fprintf(&sb, " devwrite-us[%s]", dw)
	}
	if fs := m.FsyncLatency(); fs.Count > 0 {
		fmt.Fprintf(&sb, " fsync-us[%s]", fs)
	}
	if cp := m.CriticalPath(); cp.Count > 0 {
		fmt.Fprintf(&sb, " critpath-us[%s]", cp)
	}
	if rt := m.RVPThreadTime(); rt.Count > 0 {
		fmt.Fprintf(&sb, " rvpthread-us[%s]", rt)
	}
	if sr := m.SnapshotReads(); sr > 0 {
		fmt.Fprintf(&sb, " snapshot-reads=%d", sr)
	}
	if cl := m.ChainLength(); cl.Count > 0 {
		fmt.Fprintf(&sb, " chainlen[%s]", cl)
	}
	if pl := m.PruneLag(); pl.Count > 0 {
		fmt.Fprintf(&sb, " prunelag[%s]", pl)
	}
	if mv := m.BoundaryMoves(); mv > 0 {
		fmt.Fprintf(&sb, " boundary-moves=%d", mv)
	}
	return sb.String()
}
