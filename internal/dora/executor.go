package dora

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/metrics"
	"dora/internal/storage"
)

// ExecutorStats reports one executor's activity.
type ExecutorStats struct {
	// ActionsExecuted is the number of actions this executor ran.
	ActionsExecuted uint64
	// ActionsInline is the number of actions a Run caller executed on this
	// executor's dataset itself, without a queue hop (Transaction.Run).
	// They count toward ActionsExecuted, not toward BatchesDrained or
	// MessagesProcessed.
	ActionsInline uint64
	// ActionsBlocked is the number of actions that found a conflicting local
	// lock and had to wait (re-parks after a wakeup count again).
	ActionsBlocked uint64
	// ActionsWoken is the number of parked actions returned runnable by
	// local-lock releases (per-key wait lists, not a blocked-list rescan).
	ActionsWoken uint64
	// LocalLockAcquisitions is the number of thread-local locks taken.
	LocalLockAcquisitions uint64
	// BatchesDrained is the number of queue drains; each drain takes the
	// queue latch exactly once and swaps out every pending message.
	BatchesDrained uint64
	// MessagesProcessed is the number of messages handled. The ratio
	// BatchesDrained/MessagesProcessed is the consumer-side latch
	// acquisitions per message (1.0 in the unbatched design, <1 here).
	MessagesProcessed uint64
	// QueueLength is the current incoming-queue length.
	QueueLength int
	// LocalLocksHeld is the current number of locked identifiers.
	LocalLocksHeld int
	// BlockedWaiting is the current number of actions parked on wait lists.
	BlockedWaiting int
}

// message kinds processed by an executor.
type messageKind int

const (
	msgAction messageKind = iota
	msgCompletion
	msgSystem
	// msgSystemBarrier is a system action that must not run in the middle of
	// a drained batch: it executes only after every message of the batch it
	// arrived in has been served. The A.2.1 drain runs as a barrier — run
	// inline it would block the executor with the tail of its own batch still
	// in hand, deadlocking against any transaction whose next action sits in
	// that tail while the drain waits for its locks.
	msgSystemBarrier
	msgStop
)

// message is one entry in an executor's queues.
type message struct {
	kind messageKind
	act  *boundAction
	// txnID identifies the finished transaction for completion messages.
	txnID uint64
	// sys runs on the executor goroutine for system actions (dataset
	// resizing, draining), while it owns the dataset.
	sys func()
}

// messagePool recycles queue messages; the executor hot path would otherwise
// allocate one per action and one per completion.
var messagePool = sync.Pool{New: func() any { return new(message) }}

func newMessage(kind messageKind) *message {
	m := messagePool.Get().(*message)
	m.kind = kind
	return m
}

// releaseMessage returns a processed message to the pool. Callers must not
// touch the message afterwards.
func releaseMessage(m *message) {
	*m = message{}
	messagePool.Put(m)
}

// Executor is a worker thread bound to one dataset of one table (§4.1.1).
// It serially processes the actions routed to it, coordinates conflicting
// actions through its thread-local lock table, and releases local locks when
// transaction-completion messages arrive.
//
// The unit of exclusion is owning the dataset, not being the executor
// goroutine: the executor goroutine owns it while it serves a drained batch,
// and a Run caller may own it to execute a single-target phase itself when
// the executor is idle (runInline), the flat-combining shortcut that spares
// the queue hop and the wake-up. One goroutine at a time owns the dataset,
// and only the owner touches the local lock table, the region gates and the
// wait timers of parked actions.
type Executor struct {
	sys    *System
	table  string
	index  int // dataset index within the table
	global int // global ordinal defining the queue-latching order (§4.2.3)

	// The incoming and completion queues share one latch (mutex); completed
	// messages are served with priority, as in the paper's prototype. The
	// consumer drains both queues in one latch acquisition (slice swap) and
	// processes the batch latch-free.
	mu        sync.Mutex
	cond      *sync.Cond
	incoming  []*message
	completed []*message
	stopped   bool
	// busy marks the dataset as owned. An executor is born owned by its
	// goroutine, which gives the dataset up in its first drain, so no caller
	// can take it before that goroutine runs. The executor goroutine clears
	// busy in the same latch acquisition as its next drain; a Run caller
	// clears it in disown. While the dataset is owned, enqueuers skip
	// cond.Signal: the owner checks the queues again before it lets go.
	busy bool
	// drainWait is set while the owning executor goroutine sleeps in the
	// A.2.1 drain (dequeueForDrain), the one wait that happens while the
	// dataset is owned, so enqueuers must signal it.
	drainWait bool
	// spare is the owner's buffer for the completions a Run caller serves
	// when it lets go of the dataset (disown).
	spare []*message

	locks *localLockTable

	// part is the partition this executor serves; its load histogram is fed
	// with every action the executor drains or a Run caller executes inline,
	// which is the signal the balancer's control loop consumes.
	part *partition

	// gates holds the active region gates of in-flight boundary moves in
	// which this executor is the growing side: actions for a newly acquired
	// region are deferred until the shrinking executor's drain finishes
	// (A.2.1), while everything else keeps being served — blocking the whole
	// executor here would deadlock multi-table flows against the drain. Only
	// the dataset's owner touches the slice; a Run caller that owns it only
	// checks that it is empty before executing inline.
	gates []*regionGate

	statExecuted atomic.Uint64
	statInline   atomic.Uint64
	statBlocked  atomic.Uint64
	statWoken    atomic.Uint64
	statLocks    atomic.Uint64
	statBatches  atomic.Uint64
	statMsgs     atomic.Uint64
	statLoad     atomic.Uint64 // actions routed here; resource-manager load signal
	statHeld     atomic.Int64  // gauge: locked identifiers (maintained by the dataset's owner)
	statWaiting  atomic.Int64  // gauge: parked actions (maintained by the dataset's owner)
}

func newExecutor(sys *System, table string, index, global int) *Executor {
	e := &Executor{
		sys:    sys,
		table:  table,
		index:  index,
		global: global,
		locks:  newLocalLockTable(),
		busy:   true, // until run's first drain
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Table returns the table this executor serves.
func (e *Executor) Table() string { return e.table }

// Index returns the executor's dataset index within its table.
func (e *Executor) Index() int { return e.index }

// Stats returns a snapshot of the executor's counters.
func (e *Executor) Stats() ExecutorStats {
	e.mu.Lock()
	qlen := len(e.incoming)
	e.mu.Unlock()
	return ExecutorStats{
		ActionsExecuted:       e.statExecuted.Load(),
		ActionsInline:         e.statInline.Load(),
		ActionsBlocked:        e.statBlocked.Load(),
		ActionsWoken:          e.statWoken.Load(),
		LocalLockAcquisitions: e.statLocks.Load(),
		BatchesDrained:        e.statBatches.Load(),
		MessagesProcessed:     e.statMsgs.Load(),
		QueueLength:           qlen,
		LocalLocksHeld:        int(e.statHeld.Load()),
		BlockedWaiting:        int(e.statWaiting.Load()),
	}
}

// QueueDepth returns the current incoming-queue length — the admission
// controller's per-executor watermark signal, cheaper than a full Stats
// snapshot on the probe path.
func (e *Executor) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.incoming)
}

// loadSince returns and resets the executor's load counter (actions routed
// to it since the last call, queued or run inline); the resource manager
// polls it.
func (e *Executor) loadSince() uint64 {
	return e.statLoad.Swap(0)
}

// lockQueue latches the incoming queue; part of the ordered-submission
// protocol (§4.2.3).
func (e *Executor) lockQueue() { e.mu.Lock() }

// unlockQueue releases the queue latch and wakes the executor.
func (e *Executor) unlockQueue() {
	e.wakeLocked()
	e.mu.Unlock()
}

// wakeLocked wakes the executor goroutine for newly queued messages, unless
// the dataset is owned: its owner checks the queues again before it lets go
// (drain, disown). The exception is the owner asleep in the A.2.1 drain. The
// caller holds the queue latch.
func (e *Executor) wakeLocked() {
	if !e.busy || e.drainWait {
		e.cond.Signal()
	}
}

// enqueueActionLocked appends an action; the caller holds the queue latch.
func (e *Executor) enqueueActionLocked(a *boundAction) {
	m := newMessage(msgAction)
	m.act = a
	e.incoming = append(e.incoming, m)
	e.statLoad.Add(1)
}

// enqueueAction appends an action, latching the queue itself.
func (e *Executor) enqueueAction(a *boundAction) {
	e.mu.Lock()
	e.enqueueActionLocked(a)
	e.wakeLocked()
	e.mu.Unlock()
}

// enqueueCompletion appends a transaction-completion message.
func (e *Executor) enqueueCompletion(txnID uint64) {
	m := newMessage(msgCompletion)
	m.txnID = txnID
	e.mu.Lock()
	e.completed = append(e.completed, m)
	e.wakeLocked()
	e.mu.Unlock()
}

// enqueueSystem appends a system action (used by the partition manager).
func (e *Executor) enqueueSystem(fn func()) {
	e.enqueueSystemKind(msgSystem, fn)
}

// enqueueSystemBarrier appends a system action that runs only once the batch
// it was drained with has been fully served (see msgSystemBarrier).
func (e *Executor) enqueueSystemBarrier(fn func()) {
	e.enqueueSystemKind(msgSystemBarrier, fn)
}

func (e *Executor) enqueueSystemKind(kind messageKind, fn func()) {
	m := newMessage(kind)
	m.sys = fn
	e.mu.Lock()
	e.incoming = append(e.incoming, m)
	e.wakeLocked()
	e.mu.Unlock()
}

// stop asks the executor to exit after draining already-queued messages.
func (e *Executor) stop() {
	e.mu.Lock()
	if !e.stopped {
		e.stopped = true
		e.incoming = append(e.incoming, newMessage(msgStop))
	}
	e.wakeLocked()
	e.mu.Unlock()
}

// drain gives up the dataset the executor goroutine owned for its previous
// batch, blocks until messages are available and no Run caller owns the
// dataset, then takes ownership and every pending message in one latch
// acquisition by swapping the queue slices with the (recycled) buffers from
// the previous batch. Completions are returned separately so the caller can
// serve them first.
func (e *Executor) drain(compBuf, inBuf []*message) (comp, inc []*message) {
	e.mu.Lock()
	e.busy = false
	for e.busy || len(e.completed) == 0 && len(e.incoming) == 0 {
		e.cond.Wait()
	}
	e.busy = true
	comp, e.completed = e.completed, compBuf[:0]
	inc, e.incoming = e.incoming, inBuf[:0]
	e.mu.Unlock()
	return comp, inc
}

// run is the executor main loop: drain a batch, serve its completions first
// (so blocked actions are unblocked as soon as possible), then its actions,
// all without re-taking the queue latch.
func (e *Executor) run() {
	var comp, inc []*message
	for {
		comp, inc = e.drain(comp, inc)
		e.statBatches.Add(1)
		e.statMsgs.Add(uint64(len(comp) + len(inc)))
		if col := e.sys.collector(); col != nil {
			col.ObserveExecutorBatch(len(comp) + len(inc))
		}
		e.liftGates()
		for _, m := range comp {
			e.handleCompletion(m.txnID)
			releaseMessage(m)
		}
		var barriers []func()
		for _, m := range inc {
			switch m.kind {
			case msgStop:
				return
			case msgSystem:
				m.sys()
			case msgSystemBarrier:
				barriers = append(barriers, m.sys)
			case msgAction:
				if e.gateDefer(m) {
					continue // held by a region gate; requeued when it lifts
				}
				// Report the action to the partition's load accounting as part
				// of the batch drain: the balancer reads a per-range histogram
				// fed continuously from executor batch stats instead of
				// sampling queue lengths ad hoc.
				if h := e.part.hist; h != nil {
					h.observe(m.act.lockKey())
				}
				e.handleAction(m.act)
			}
			releaseMessage(m)
		}
		// Barrier system actions (the A.2.1 drain) run only now, with the
		// whole batch served: anything they wait on can no longer be stranded
		// in this goroutine's hands.
		for _, fn := range barriers {
			fn()
		}
		e.storeLockGauges()
	}
}

// runInline executes a, the only action of its phase, on the calling
// goroutine when the executor is idle: not owned, not stopped, and with both
// queues empty, so nothing queued is overtaken. Otherwise, or when a region
// gate is armed or the routing key moved to another executor since the
// phase was routed, it enqueues a as submitPhase would. The action takes the
// executor's own path (handleAction); a flow that hands off here, by
// enqueueing or by parking on a local lock, leaves inline mode while the
// caller still owns the dataset.
func (e *Executor) runInline(a *boundAction) {
	flow := a.flow
	e.mu.Lock()
	if e.busy || e.stopped || len(e.incoming) > 0 || len(e.completed) > 0 {
		flow.inline = false
		e.enqueueActionLocked(a)
		e.wakeLocked()
		e.mu.Unlock()
		return
	}
	e.busy = true
	e.mu.Unlock()
	if len(e.gates) > 0 || !e.routes(a) {
		flow.inline = false
		e.enqueueAction(a)
		e.disown()
		return
	}
	e.statInline.Add(1)
	e.statLoad.Add(1)
	if h := e.part.hist; h != nil {
		h.observe(a.lockKey())
	}
	e.handleAction(a)
	e.disown()
}

// routes reports whether the current partition table still routes the
// action to this executor.
func (e *Executor) routes(a *boundAction) bool {
	if a.action.Broadcast {
		return true
	}
	owner, err := e.sys.executorFor(a.action.Table, a.lockKey())
	return err == nil && owner == e
}

// disown ends a Run caller's ownership of the dataset. The caller first
// serves the completions queued meanwhile (its own early-lock-release
// message among them), then publishes the lock gauges and wakes the
// executor goroutine only if actions are waiting for it.
func (e *Executor) disown() {
	e.mu.Lock()
	for len(e.completed) > 0 {
		comp := e.completed
		e.completed = e.spare[:0]
		e.mu.Unlock()
		for i, m := range comp {
			e.handleCompletion(m.txnID)
			releaseMessage(m)
			comp[i] = nil
		}
		e.spare = comp
		e.mu.Lock()
	}
	e.storeLockGauges()
	e.busy = false
	if len(e.incoming) > 0 {
		e.cond.Signal()
	}
	e.mu.Unlock()
}

// storeLockGauges publishes the local lock table's census to Stats. The run
// loop calls it after each batch, disown before it lets go, and releaseTxn as
// soon as a release wakes waiters: a woken action can commit and acknowledge
// its client inline, before the batch ends, and the client must not read a
// stale gauge.
func (e *Executor) storeLockGauges() {
	e.statHeld.Store(int64(e.locks.size()))
	e.statWaiting.Store(int64(e.locks.waiterCount()))
}

// regionGate is the growing side of one in-flight boundary move: actions for
// the moved key region are deferred until the shrinking executor's drain
// completes (signalled by closing drained).
type regionGate struct {
	lo, hi   storage.Key // the moved region [lo, hi), by routing-key prefix
	shrink   *Executor   // the shrinking side whose drain the gate waits on
	drained  <-chan struct{}
	deferred []*message
}

// gateRegion arms a region gate. It runs on the executor goroutine (as a
// system action, owning the dataset) and returns immediately — the executor
// keeps serving everything outside the gated region.
func (e *Executor) gateRegion(lo, hi storage.Key, shrink *Executor, drained <-chan struct{}) {
	e.gates = append(e.gates, &regionGate{lo: lo, hi: hi, shrink: shrink, drained: drained})
}

// liftGates requeues the deferred actions of every gate whose drain has
// completed and drops those gates. Runs on the executor goroutine.
func (e *Executor) liftGates() {
	if len(e.gates) == 0 {
		return
	}
	kept := e.gates[:0]
	var requeue []*message
	for _, g := range e.gates {
		select {
		case <-g.drained:
			requeue = append(requeue, g.deferred...)
		default:
			kept = append(kept, g)
		}
	}
	for i := len(kept); i < len(e.gates); i++ {
		e.gates[i] = nil
	}
	e.gates = kept
	e.requeueRerouted(requeue)
}

// requeueRerouted puts deferred messages back into service: actions whose
// routing key now belongs to another executor (the boundary moved again in
// the meantime) are forwarded there, everything else returns to the front of
// this executor's queue.
func (e *Executor) requeueRerouted(msgs []*message) {
	if len(msgs) == 0 {
		return
	}
	var local []*message
	for _, m := range msgs {
		if m.kind != msgAction || m.act.action.Broadcast || len(m.act.lockKey()) == 0 {
			local = append(local, m)
			continue
		}
		owner, err := e.sys.executorFor(m.act.action.Table, m.act.lockKey())
		if err != nil || owner == e {
			local = append(local, m)
			continue
		}
		owner.enqueueAction(m.act)
		releaseMessage(m)
	}
	if len(local) > 0 {
		e.mu.Lock()
		e.incoming = append(local, e.incoming...)
		e.mu.Unlock()
	}
}

// gateDefer defers the action if an active region gate covers its routing
// key, unless its transaction was already served by this executor or by the
// gate's shrinking executor: such a flow holds local locks the drain waits
// for, so deferring it would deadlock the move against the transaction (a
// multi-phase flow whose claimed key was re-homed between its phases).
// Returns true when the message was parked on a gate.
func (e *Executor) gateDefer(m *message) bool {
	if len(e.gates) == 0 {
		return false
	}
	k := m.act.lockKey()
	for _, g := range e.gates {
		if bytes.Compare(k, g.lo) >= 0 && bytes.Compare(k, g.hi) < 0 &&
			!e.locks.heldByTxn(m.act.flow.txnID()) &&
			!m.act.flow.isParticipant(g.shrink) {
			g.deferred = append(g.deferred, m)
			e.armWaitBackstop(m.act)
			return true
		}
	}
	return false
}

// armWaitBackstop starts the lock-wait deadlock backstop for an action parked
// on a gate or drain deferred list. The participant test in gateDefer races
// benignly against a sibling action registering on the shrinking executor: a
// flow can be deferred here moments before it acquires the very locks the
// drain waits for, a cycle no lock table can see. The backstop aborts the
// flow after the lock-wait timeout, exactly like a parked lock wait. It runs
// on the dataset's owner (waitTimer discipline).
func (e *Executor) armWaitBackstop(a *boundAction) {
	if a.waitTimer != nil {
		return
	}
	flow, wait := a.flow, e.sys.cfg.LockWaitTimeout
	// The wait bound is min(LockWaitTimeout, remaining deadline): a parked
	// transaction whose deadline expires first is out of budget, not a
	// presumed deadlock victim, and must report ErrDeadlineExceeded.
	cause := ErrLockWaitTimeout
	if rem, ok := flow.deadlineRemaining(); ok && rem < wait {
		wait, cause = max(rem, 0), ErrDeadlineExceeded
	}
	a.waitTimer = time.AfterFunc(wait, func() {
		flow.fail(fmt.Errorf("%w after %v", cause, wait))
	})
}

// handleCompletion releases the finished transaction's local locks and
// serially executes the parked actions those releases made runnable (steps
// 11-12 of the Appendix A.1 walkthrough). Only the wait lists of the released
// entries are touched; unrelated blocked actions are never rescanned.
func (e *Executor) handleCompletion(txnID uint64) {
	start := e.doraClockStart()
	e.releaseTxn(txnID)
	e.doraClockStop(start)
}

// releaseTxn drops the transaction's local locks and retries the actions the
// release woke. A retried action that conflicts elsewhere re-parks itself on
// the new blocking entry inside tryExecute.
func (e *Executor) releaseTxn(txnID uint64) {
	_, runnable := e.locks.release(txnID)
	if len(runnable) == 0 {
		return
	}
	e.statWoken.Add(uint64(len(runnable)))
	e.storeLockGauges()
	for _, a := range runnable {
		if e.tryExecute(a) {
			releaseBoundAction(a)
		}
	}
}

// handleAction processes one routed action: probe the local lock table,
// execute if granted, otherwise the action stays parked on the blocking
// lock's wait list (steps 2-3 of the walkthrough). The dataset's owner calls
// it: the executor goroutine for a queued action, or a Run caller for the
// action it executes inline (runInline), which skips step 2's queue.
func (e *Executor) handleAction(a *boundAction) {
	if e.tryExecute(a) {
		releaseBoundAction(a)
	}
}

// tryExecute attempts to acquire the action's local lock and run it. It
// returns false when the action was parked on a wait list and true when the
// action is finished with (executed or dropped) and may be recycled.
func (e *Executor) tryExecute(a *boundAction) bool {
	flow := a.flow
	if !flow.running() {
		// The transaction already aborted (for example another action of the
		// same phase failed); drop the action without executing it.
		return true
	}
	// Out-of-budget transactions abort before taking locks: queue time counts
	// against the deadline, so an action that waited out its budget in the
	// incoming queue must not start more work.
	if err := flow.checkDeadline(); err != nil {
		flow.fail(err)
		return true
	}
	start := e.doraClockStart()
	granted := e.locks.acquireOrBlock(a)
	e.doraClockStop(start)
	if !granted {
		e.statBlocked.Add(1)
		// A parked action is woken by whoever owns the dataset next, so an
		// inline flow hands off here (see Transaction.inline).
		if flow.inline {
			flow.inline = false
		}
		// First park arms the deadlock backstop; a woken action that re-parks
		// elsewhere keeps its original wait budget. The closure captures the
		// flow, not the pooled action, so a late firing against a recycled
		// action can only re-fail an already-finished transaction (a no-op).
		e.armWaitBackstop(a)
		return false
	}
	if a.waitTimer != nil {
		a.waitTimer.Stop()
		a.waitTimer = nil
	}
	// Register as a participant so the terminal completion message releases
	// the lock just taken. If the flow died in the meantime, undo just this
	// grant and drop the action; any earlier holds are released by the
	// completion message, which arrives only after the rollback finishes, so
	// waiters never run against a transaction that is still being undone.
	if !flow.registerParticipant(e) {
		for _, w := range e.locks.ungrant(a.lockKey(), flow.txnID()) {
			e.enqueueAction(w)
		}
		return true
	}
	e.statLocks.Add(1)
	if col := e.sys.collector(); col != nil {
		col.AddLock(metrics.LocalLock, 1)
	}
	e.execute(a)
	return true
}

// execute runs the action body and reports to its RVP (steps 3-5).
func (e *Executor) execute(a *boundAction) {
	e.statExecuted.Add(1)
	flow := a.flow
	if !flow.beginExec() {
		return
	}
	err := a.action.Work(flow.newScope(e, a.phase, e.global))
	flow.endExec()
	if err != nil {
		flow.fail(err)
		return
	}
	flow.actionDone(a, e.global)
}

// doraClockStart / doraClockStop attribute time spent in the DORA mechanism
// (local locking, routing bookkeeping) to the metrics collector.
func (e *Executor) doraClockStart() time.Time {
	if e.sys.collector() == nil {
		return time.Time{}
	}
	return time.Now()
}

func (e *Executor) doraClockStop(start time.Time) {
	if start.IsZero() {
		return
	}
	if col := e.sys.collector(); col != nil {
		col.AddTime(metrics.DORA, time.Since(start))
	}
}
