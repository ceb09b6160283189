package dora

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dora/internal/storage"
)

// This file is the partition-management layer: the authoritative owner of
// DORA's routing state. Routing used to live inside System behind a RWMutex;
// it is now a first-class subsystem built around immutable, versioned
// partition tables swapped atomically, so the action-routing hot path is
// lock-free while the control plane (binds, boundary moves, the balancer)
// serializes on a single control mutex.
//
//	route lookup:   tables pointer -> partition -> routeTable pointer  (3 atomic loads)
//	control plane:  PartitionManager.mu -> copy, validate, swap, drain (A.2.1)

// routeTable is one immutable version of a table's routing rule. It is never
// mutated after publication; every change installs a fresh routeTable with a
// larger version.
type routeTable struct {
	// version is the value of the manager's global version counter when this
	// table was installed; it increases monotonically across all tables.
	version uint64
	// boundaries[i] is the lowest routing key owned by executors[i+1]; an
	// action with routing key k is owned by the executor whose range contains
	// k. len(boundaries) == len(executors)-1.
	boundaries []storage.Key
	executors  []*Executor

	// intKeys marks tables bound over a known integer routing span
	// [keyLo, keyHi] (BindTableInts): the only tables the balancer can reason
	// about, because proposing a new boundary requires key arithmetic.
	intKeys      bool
	keyLo, keyHi int64
	intBounds    []int64 // decoded boundaries, len == len(boundaries)
}

// route picks the executor owning the routing key. Lock-free: the receiver is
// immutable.
func (rt *routeTable) route(key storage.Key) *Executor {
	idx := sort.Search(len(rt.boundaries), func(i int) bool {
		return bytes.Compare(key, rt.boundaries[i]) < 0
	})
	return rt.executors[idx]
}

// partition is the long-lived holder of one table's routing state: the
// current routeTable (swapped atomically on every change) and the per-range
// load histogram the balancer reads. Executors keep a pointer to their
// partition so they can feed the histogram on every drained batch.
type partition struct {
	table string
	cur   atomic.Pointer[routeTable]
	// hist is nil for tables without a known integer key span.
	hist *loadHistogram
}

// maxLoadBuckets bounds the load histogram's resolution. Tables whose integer
// span is smaller get one bucket per key (exact per-key loads).
const maxLoadBuckets = 64

// loadHistogram counts actions per routing-key range. Executors add to it as
// they drain batches; the balancer swaps the counters out on every tick, so
// the histogram always holds the load since the previous tick.
type loadHistogram struct {
	keyLo, span int64
	buckets     []atomic.Uint64
}

func newLoadHistogram(keyLo, keyHi int64) *loadHistogram {
	span := keyHi - keyLo + 1
	n := span
	if n > maxLoadBuckets {
		n = maxLoadBuckets
	}
	return &loadHistogram{keyLo: keyLo, span: span, buckets: make([]atomic.Uint64, n)}
}

// bucketOf maps an integer routing value into a bucket index.
func (h *loadHistogram) bucketOf(v int64) int {
	if v < h.keyLo {
		return 0
	}
	b := (v - h.keyLo) * int64(len(h.buckets)) / h.span
	if b >= int64(len(h.buckets)) {
		b = int64(len(h.buckets)) - 1
	}
	return int(b)
}

// keyOfBucket returns the smallest integer routing value of the bucket — the
// value the balancer uses when it turns a bucket index back into a routing
// boundary.
func (h *loadHistogram) keyOfBucket(b int) int64 {
	return h.keyLo + int64(b)*h.span/int64(len(h.buckets))
}

// observe records one action for the routing key, if its leading component is
// an integer inside the table's span.
func (h *loadHistogram) observe(key storage.Key) {
	v, ok := decodeIntKey(key)
	if !ok {
		return
	}
	h.buckets[h.bucketOf(v)].Add(1)
}

// drain moves the counters into out (len(out) must equal len(h.buckets)),
// resetting them.
func (h *loadHistogram) drain(out []uint64) {
	for i := range h.buckets {
		out[i] = h.buckets[i].Swap(0)
	}
}

// decodeIntKey decodes the leading integer component of an encoded key. It is
// the inverse of storage.EncodeKey's integer transform (big-endian, sign bit
// flipped).
func decodeIntKey(k storage.Key) (int64, bool) {
	if len(k) < 9 || k[0] != byte(storage.KindInt) {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(k[1:9]) ^ (1 << 63)), true
}

// encodeIntKey builds the routing key for an integer boundary.
func encodeIntKey(v int64) storage.Key {
	return storage.EncodeKey(storage.IntValue(v))
}

// PartitionManager owns DORA's runtime routing policy: the versioned
// partition table of every bound table, the per-range load accounting fed by
// the executors, boundary moves following the Appendix A.2.1 drain protocol,
// and the abort-rate monitor that switches high-abort transaction types to
// serial plans (A.4). It replaces the former ResourceManager.
type PartitionManager struct {
	sys *System

	// mu serializes the control plane: binds, boundary moves, and executor
	// ordinal assignment. Route lookups never take it.
	mu     sync.Mutex
	tables atomic.Pointer[map[string]*partition]

	// version is the global partition-table version: bumped on every bind and
	// every boundary move, across all tables.
	version atomic.Uint64
	// moves counts applied boundary moves.
	moves atomic.Uint64

	balancer *Balancer

	// Abort-rate monitoring for PlanFor (A.4).
	planMu    sync.Mutex
	outcomes  map[string]*outcomeStats
	threshold float64
}

type outcomeStats struct {
	committed uint64
	aborted   uint64
}

func newPartitionManager(s *System) *PartitionManager {
	pm := &PartitionManager{
		sys:       s,
		outcomes:  make(map[string]*outcomeStats),
		threshold: DefaultSerialAbortThreshold,
	}
	empty := make(map[string]*partition)
	pm.tables.Store(&empty)
	return pm
}

// snapshot returns the current table map. The map itself is immutable
// (copy-on-write on bind), so callers may read it freely.
func (pm *PartitionManager) snapshot() map[string]*partition {
	return *pm.tables.Load()
}

// lookup returns the partition of a table, or nil.
func (pm *PartitionManager) lookup(table string) *partition {
	return pm.snapshot()[table]
}

// current returns the current routeTable of a table, or nil. Lock-free.
func (pm *PartitionManager) current(table string) *routeTable {
	p := pm.lookup(table)
	if p == nil {
		return nil
	}
	return p.cur.Load()
}

// Version returns the global partition-table version counter.
func (pm *PartitionManager) Version() uint64 { return pm.version.Load() }

// BoundaryMoves returns the number of boundary moves applied so far.
func (pm *PartitionManager) BoundaryMoves() uint64 { return pm.moves.Load() }

// Balancer returns the online rebalancing control loop, or nil when the
// system was configured without one.
func (pm *PartitionManager) Balancer() *Balancer { return pm.balancer }

// bind installs (or replaces) a table's routing rule: it creates the
// executors, publishes the new partition, and stops the executors of a
// replaced rule. intKeys/keyLo/keyHi describe the integer routing span when
// known (BindTableInts), which arms the load histogram and the balancer.
func (pm *PartitionManager) bind(table string, boundaries []storage.Key, intKeys bool, keyLo, keyHi int64) error {
	for i := 1; i < len(boundaries); i++ {
		if bytes.Compare(boundaries[i-1], boundaries[i]) >= 0 {
			return fmt.Errorf("dora: routing boundaries for %q are not strictly increasing", table)
		}
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.sys.stopped.Load() {
		return ErrSystemStopped
	}
	old := pm.snapshot()
	var oldExecs []*Executor
	if prev, exists := old[table]; exists {
		oldExecs = prev.cur.Load().executors
	}
	p := &partition{table: table}
	if intKeys {
		p.hist = newLoadHistogram(keyLo, keyHi)
	}
	rt := &routeTable{
		version:    pm.version.Add(1),
		boundaries: append([]storage.Key(nil), boundaries...),
		intKeys:    intKeys,
		keyLo:      keyLo,
		keyHi:      keyHi,
	}
	if intKeys {
		rt.intBounds = make([]int64, len(boundaries))
		for i, b := range boundaries {
			v, ok := decodeIntKey(b)
			if !ok {
				return fmt.Errorf("dora: integer-bound table %q has a non-integer boundary", table)
			}
			rt.intBounds[i] = v
		}
	}
	for i := 0; i < len(boundaries)+1; i++ {
		ex := newExecutor(pm.sys, table, i, pm.sys.nextExec)
		ex.part = p
		pm.sys.nextExec++
		rt.executors = append(rt.executors, ex)
	}
	p.cur.Store(rt)

	next := make(map[string]*partition, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[table] = p
	pm.tables.Store(&next)

	// Start the new executors only after the partition is published, and stop
	// the replaced ones last so in-flight actions drain into live goroutines.
	for _, ex := range rt.executors {
		go ex.run()
	}
	for _, ex := range oldExecs {
		ex.stop()
	}
	return nil
}

// MoveBoundary shifts one routing boundary of the table, shrinking one
// executor's dataset and growing its neighbour's, following the protocol of
// Appendix A.2.1: a new partition-table version is published first (so new
// actions for the moved region route to the growing executor, where they
// queue behind the gate), then the shrinking executor drains the actions it
// has already served, and the growing executor does not serve actions for the
// newly assigned region until the drain finishes.
//
// newKey must stay strictly between the neighbouring boundaries.
func (pm *PartitionManager) MoveBoundary(table string, boundary int, newKey storage.Key) error {
	pm.mu.Lock()
	p := pm.lookup(table)
	if p == nil {
		pm.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoRoutingRule, table)
	}
	rt := p.cur.Load()
	if boundary < 0 || boundary >= len(rt.boundaries) {
		pm.mu.Unlock()
		return fmt.Errorf("dora: table %q has no boundary %d", table, boundary)
	}
	if boundary > 0 && bytes.Compare(newKey, rt.boundaries[boundary-1]) <= 0 {
		pm.mu.Unlock()
		return fmt.Errorf("dora: new boundary below its left neighbour")
	}
	if boundary < len(rt.boundaries)-1 && bytes.Compare(newKey, rt.boundaries[boundary+1]) >= 0 {
		pm.mu.Unlock()
		return fmt.Errorf("dora: new boundary above its right neighbour")
	}
	old := rt.boundaries[boundary]
	cmp := bytes.Compare(newKey, old)
	if cmp == 0 {
		pm.mu.Unlock()
		return nil
	}
	// Moving the boundary up grows executor[boundary] (left) and shrinks
	// executor[boundary+1] (right); moving it down does the opposite.
	var shrinking, growing *Executor
	if cmp > 0 {
		shrinking, growing = rt.executors[boundary+1], rt.executors[boundary]
	} else {
		shrinking, growing = rt.executors[boundary], rt.executors[boundary+1]
	}
	// Publish the new version first so new actions for the moved region are
	// routed to the growing executor (where they queue behind the gate).
	nrt := &routeTable{
		version:    pm.version.Add(1),
		boundaries: append([]storage.Key(nil), rt.boundaries...),
		executors:  rt.executors,
		intKeys:    rt.intKeys,
		keyLo:      rt.keyLo,
		keyHi:      rt.keyHi,
	}
	nrt.boundaries[boundary] = append(storage.Key(nil), newKey...)
	if rt.intKeys {
		nrt.intBounds = append([]int64(nil), rt.intBounds...)
		if v, ok := decodeIntKey(newKey); ok {
			nrt.intBounds[boundary] = v
		} else {
			nrt.intKeys = false // boundary left the integer plane; balancer steps aside
		}
	}
	p.cur.Store(nrt)
	pm.moves.Add(1)
	if col := pm.sys.collector(); col != nil {
		col.AddBoundaryMove()
	}
	pm.mu.Unlock()

	// The moved region is the key range between the old and new boundary.
	lo, hi := old, storage.Key(nrt.boundaries[boundary])
	if cmp < 0 {
		lo, hi = hi, lo
	}
	drained := make(chan struct{})
	// The drain is a barrier message: it must not start while the shrinking
	// executor still has part of a drained batch in hand, or an action of a
	// lock-holding transaction stranded in that batch tail deadlocks it.
	shrinking.enqueueSystemBarrier(func() {
		shrinking.drainUntilQuiescent()
		close(drained)
	})
	// The growing executor keeps running: it defers only actions for the
	// moved region until the drain finishes (blocking it entirely would
	// deadlock multi-table flows that hold locks on the shrinking executor
	// and still need service here).
	growing.enqueueSystem(func() {
		growing.gateRegion(lo, hi, shrinking, drained)
	})
	<-drained
	gateDone := make(chan struct{})
	growing.enqueueSystem(func() {
		growing.liftGates()
		close(gateDone)
	})
	<-gateDone
	return nil
}

// ExecutorLoads returns, for each executor of the table, the number of
// actions enqueued since the previous call — the coarse per-executor load
// signal exposed for introspection and examples. The balancer itself reads
// the finer per-range histogram fed from executor batch stats.
func (pm *PartitionManager) ExecutorLoads(table string) []uint64 {
	rt := pm.current(table)
	if rt == nil {
		return nil
	}
	out := make([]uint64, len(rt.executors))
	for i, ex := range rt.executors {
		out[i] = ex.loadSince()
	}
	return out
}

// --- execution-plan policy (A.4) --------------------------------------------

// Plan selects between the two execution strategies of Appendix A.4 for
// transactions whose actions can run in parallel but abort often.
type Plan int

const (
	// PlanParallel executes independent actions of a phase concurrently
	// (DORA-P): best latency, but wasted work when siblings abort.
	PlanParallel Plan = iota
	// PlanSerial inserts empty rendezvous points between the actions so they
	// execute one at a time (DORA-S): no wasted work on aborts.
	PlanSerial
)

// String returns the plan label used in Figure 11.
func (p Plan) String() string {
	if p == PlanSerial {
		return "DORA-S"
	}
	return "DORA-P"
}

// DefaultSerialAbortThreshold is the abort rate above which the partition
// manager switches a transaction type to the serial plan.
const DefaultSerialAbortThreshold = 0.10

// minPlanSamples is how many outcomes must be observed before the partition
// manager overrides the parallel default.
const minPlanSamples = 50

// SetSerialAbortThreshold overrides the abort rate above which PlanFor
// returns PlanSerial.
func (pm *PartitionManager) SetSerialAbortThreshold(t float64) {
	pm.planMu.Lock()
	pm.threshold = t
	pm.planMu.Unlock()
}

// RecordOutcome feeds the abort-rate monitor with the outcome of one
// transaction of the named type.
func (pm *PartitionManager) RecordOutcome(txnName string, aborted bool) {
	pm.planMu.Lock()
	st := pm.outcomes[txnName]
	if st == nil {
		st = &outcomeStats{}
		pm.outcomes[txnName] = st
	}
	if aborted {
		st.aborted++
	} else {
		st.committed++
	}
	pm.planMu.Unlock()
}

// AbortRate returns the observed abort rate of the named transaction type and
// the number of samples it is based on.
func (pm *PartitionManager) AbortRate(txnName string) (rate float64, samples uint64) {
	pm.planMu.Lock()
	defer pm.planMu.Unlock()
	st := pm.outcomes[txnName]
	if st == nil {
		return 0, 0
	}
	samples = st.committed + st.aborted
	if samples == 0 {
		return 0, 0
	}
	return float64(st.aborted) / float64(samples), samples
}

// PlanFor chooses the execution strategy for the named transaction type:
// parallel by default, serial once the observed abort rate exceeds the
// threshold (Figure 11's DORA-S).
func (pm *PartitionManager) PlanFor(txnName string) Plan {
	rate, samples := pm.AbortRate(txnName)
	pm.planMu.Lock()
	threshold := pm.threshold
	pm.planMu.Unlock()
	if samples >= minPlanSamples && rate > threshold {
		return PlanSerial
	}
	return PlanParallel
}

// --- A.2.1 drain protocol helpers (run on executor goroutines) ---------------

// drainUntilQuiescent runs the shrinking side of the A.2.1 protocol until
// every local lock has been released: it stops admitting new transactions,
// but keeps serving completions and the actions of transactions it has
// already served (transactions holding local locks here — multi-phase flows
// whose later phases re-acquire their first phase's claims would otherwise
// never be able to release them, deadlocking the drain against the very
// locks it waits for). Actions of new transactions are deferred and requeued
// once the executor is quiescent. It runs on the executor goroutine.
func (e *Executor) drainUntilQuiescent() {
	var deferred []*message
	// admitted reports whether the drain must serve the message now: it
	// belongs to a transaction this executor already holds locks for (or one
	// that already died and only needs dropping).
	admitted := func(m *message) bool {
		return m.kind == msgAction &&
			(!m.act.flow.running() || e.locks.heldByTxn(m.act.flow.txnID()))
	}
	serve := func(m *message) {
		if h := e.part.hist; h != nil {
			h.observe(m.act.lockKey())
		}
		e.handleAction(m.act)
		releaseMessage(m)
	}
	for e.locks.size() > 0 {
		e.liftGates() // this executor may be the growing side of another move
		m := e.dequeueForDrain()
		if m == nil {
			break // executor stopping
		}
		switch {
		case m.kind == msgCompletion:
			e.handleCompletion(m.txnID)
		case admitted(m):
			serve(m)
			continue
		default:
			if m.kind == msgAction {
				// The same benign race as in gateDefer: the flow may acquire
				// drain-awaited locks right after being deferred (see
				// armWaitBackstop). The sweep below catches local grants; the
				// backstop bounds cross-executor cycles.
				e.armWaitBackstop(m.act)
			}
			// New transactions, system actions, and a pending stop wait for
			// the hand-over.
			deferred = append(deferred, m)
			continue
		}
		releaseMessage(m)
		// The completion may have granted locks to transactions whose earlier
		// actions were deferred (a parked action woke and executed): such a
		// transaction now blocks the drain, so its deferred work must be
		// served or the drain deadlocks against it.
		kept := deferred[:0]
		for _, dm := range deferred {
			if admitted(dm) {
				serve(dm)
			} else {
				kept = append(kept, dm)
			}
		}
		for i := len(kept); i < len(deferred); i++ {
			deferred[i] = nil
		}
		deferred = kept
	}
	// Hand-over: deferred actions are re-routed through the now-current
	// partition table — an action for the moved region belongs to the grown
	// executor, not to this one anymore. Everything still owned here (and the
	// system/stop messages) goes back to the front of the queue.
	e.requeueRerouted(deferred)
}

// dequeueForDrain blocks until any message arrives, serving completions
// first. It returns nil if the executor is asked to stop and has nothing
// queued. The executor goroutine owns the dataset while it waits here, so it
// raises drainWait for enqueuers to signal it anyway.
func (e *Executor) dequeueForDrain() *message {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if len(e.completed) > 0 {
			m := e.completed[0]
			e.completed = e.completed[1:]
			return m
		}
		if len(e.incoming) > 0 {
			m := e.incoming[0]
			e.incoming = e.incoming[1:]
			return m
		}
		if e.stopped {
			return nil
		}
		e.drainWait = true
		e.cond.Wait()
		e.drainWait = false
	}
}
