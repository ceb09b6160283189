package dora

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/engine"
)

// flow states.
const (
	flowRunning int32 = iota
	flowCommitted
	flowAborted
)

// rvp is a rendezvous point: the synchronization object separating two phases
// of a transaction flow graph (§4.1.2). Its counter starts at the number of
// actions that must report to it; the executor that zeroes it initiates the
// next phase, and zeroing the terminal RVP calls for commit. Forwarded
// actions (Scope.Forward) join their phase's RVP by incrementing the counter
// before the forwarding action reports, so the counter can never hit zero
// with a forwarded action still outstanding.
type rvp struct {
	remaining atomic.Int32
}

// Hot-path allocation pools for transaction start (one rvp slice, one
// participants map, and — on first Put — one shared map per transaction).
// Pooled resources are recycled only on paths where no action can still
// reference them: the rvp slice and shared map when the terminal RVP fires
// (every action has reported by then), the participants map when the
// completion broadcast clears it. Aborted transactions leave them to the GC —
// an in-flight action of a failing transaction may still touch its RVP.
var (
	rvpSlicePool     = sync.Pool{New: func() any { s := make([]rvp, 0, 4); return &s }}
	participantsPool = sync.Pool{New: func() any { return make(map[*Executor]struct{}, 8) }}
	sharedPool       = sync.Pool{New: func() any { return make(map[string]any, 8) }}
)

// Transaction is a DORA transaction: a flow graph of actions grouped into
// phases, executed collectively by the executors owning the touched data.
type Transaction struct {
	sys *System
	// eng is the engine the actions access: the System's, or the one
	// RunConventional runs the flow on.
	eng *engine.Engine
	txn *engine.Txn

	phases [][]*Action
	rvps   []rvp
	rvpBuf *[]rvp // pool holder for rvps' backing array

	state atomic.Int32
	done  chan struct{}
	errMu sync.Mutex
	err   error

	partMu       sync.Mutex
	participants map[*Executor]struct{}

	sharedMu sync.Mutex
	shared   map[string]any

	start     time.Time
	started   bool
	dispatchN int // total actions dispatched, for stats

	// inline marks a flow that its Run caller drives itself: submitPhase
	// hands a phase with a single routed action to the caller (nextEx,
	// next) instead of enqueueing it, and the caller executes it on the
	// executor's dataset if that is idle (Executor.runInline). The flow
	// leaves inline mode for good when it hands off: it enqueues, parks on a
	// local lock, forwards, or runs a secondary. Only the caller writes true,
	// and the handoff clears it before any other goroutine can reach this
	// flow's submitPhase, so other goroutines only ever read false.
	inline bool
	nextEx *Executor
	next   *boundAction
	// inlineAck records that CommitAsync acknowledged the transaction inline
	// on the Run caller while it owned a dataset; Run yields once after it
	// lets go.
	inlineAck bool

	// Deadline budget: set before start (WithBudget, or Config.TxnDeadline),
	// resolved to an absolute deadline at dispatch and immutable after, so
	// executors read it without synchronization. Zero means no deadline.
	budget   time.Duration
	deadline time.Time
	// admitted records that this transaction holds an admission credit; the
	// single CAS winner of finalize/fail releases it.
	admitted bool

	// rvpNanos accumulates the time RVP threads spend on this transaction's
	// critical path: routing and enqueueing each phase plus any inline
	// secondary-action execution. Atomic because phase submissions happen on
	// whichever thread zeroes the previous RVP.
	rvpNanos atomic.Int64

	// execs counts action bodies currently inside Work (on an executor or an
	// RVP thread). fail() must not roll the engine transaction back while one
	// is in flight — a mutation landing after the undo would survive the
	// abort — so the last execution to retire finishes a deferred abort
	// (endExec/completeAbort). abortDone makes the rollback-and-release
	// sequence run exactly once across the racers.
	execs     atomic.Int64
	abortDone atomic.Bool
}

// NewTransaction starts building a DORA transaction.
func (s *System) NewTransaction() *Transaction {
	return &Transaction{
		sys:          s,
		eng:          s.eng,
		done:         make(chan struct{}),
		participants: participantsPool.Get().(map[*Executor]struct{}),
	}
}

// Add appends an action to the given phase (phases are numbered from 0 and
// executed in order, separated by RVPs). Consecutive accesses to the same
// identifier should be merged into one action by the caller, as the paper
// does for the Payment transaction's probe+update pairs.
func (t *Transaction) Add(phase int, a *Action) *Transaction {
	for len(t.phases) <= phase {
		t.phases = append(t.phases, nil)
	}
	t.phases[phase] = append(t.phases[phase], a)
	return t
}

// WithBudget gives the transaction a deadline budget measured from dispatch,
// overriding the system's Config.TxnDeadline. The deadline is checked at
// phase boundaries, before each action executes, and while parked on lock
// waits; exceeding it aborts the transaction with ErrDeadlineExceeded.
func (t *Transaction) WithBudget(budget time.Duration) *Transaction {
	t.budget = budget
	return t
}

// deadlineRemaining returns the time left before the transaction's deadline;
// ok is false when the transaction has none.
func (t *Transaction) deadlineRemaining() (rem time.Duration, ok bool) {
	if t.deadline.IsZero() {
		return 0, false
	}
	return time.Until(t.deadline), true
}

// checkDeadline returns ErrDeadlineExceeded once the deadline has passed.
func (t *Transaction) checkDeadline() error {
	if rem, ok := t.deadlineRemaining(); ok && rem <= 0 {
		return fmt.Errorf("%w (budget %v)", ErrDeadlineExceeded, t.budget)
	}
	return nil
}

// NumPhases returns the number of phases added so far.
func (t *Transaction) NumPhases() int { return len(t.phases) }

// NumActions returns the total number of actions added so far.
func (t *Transaction) NumActions() int {
	n := 0
	for _, p := range t.phases {
		n += len(p)
	}
	return n
}

// Err returns the transaction's final error (nil after a successful commit).
func (t *Transaction) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// State reports whether the transaction committed, aborted, or is running.
func (t *Transaction) State() string {
	switch t.state.Load() {
	case flowCommitted:
		return "committed"
	case flowAborted:
		return "aborted"
	default:
		return "running"
	}
}

func (t *Transaction) running() bool { return t.state.Load() == flowRunning }

func (t *Transaction) txnID() uint64 { return t.txn.ID() }

// Run dispatches the transaction and waits for it to commit or abort. It
// returns nil on commit and the failure cause on abort. While the flow's
// phases each route a single action, the caller executes them itself on
// every executor it finds idle, with no queue hop and no wake-up on either
// side; the first phase that does not qualify, or an executor that is busy,
// hands the flow to the executors as RunAsync would.
func (t *Transaction) Run() error {
	t.inline = true
	if err := t.start_(); err != nil {
		return err
	}
	for t.next != nil {
		ex, a := t.nextEx, t.next
		t.nextEx, t.next = nil, nil
		ex.runInline(a)
	}
	if t.inlineAck {
		// The one yield an inline ack asks for (engine.CommitAsync), taken
		// only now that the caller owns no dataset: yielding while owning
		// one would stall every action queued for it.
		runtime.Gosched()
	}
	t.await()
	return t.Err()
}

// await blocks until the transaction finishes, aborting it if the transaction
// timeout expires first. The timer is stopped on the normal path: time.After
// would pin a timer for the full timeout per transaction, which at high
// throughput accumulates millions of pending timers.
func (t *Transaction) await() {
	select {
	case <-t.done:
		return
	default:
	}
	timeout, cause := t.sys.cfg.TxnTimeout, ErrTxnTimeout
	// A deadline tighter than the system timeout bounds the wait instead, and
	// firing reports the deadline, not a generic timeout.
	if rem, ok := t.deadlineRemaining(); ok && rem < timeout {
		timeout, cause = max(rem, 0), ErrDeadlineExceeded
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-t.done:
	case <-timer.C:
		t.fail(fmt.Errorf("%w after %v", cause, timeout))
		<-t.done
	}
}

// RunAsync dispatches the transaction and returns a channel that receives the
// final error (nil on commit) exactly once.
func (t *Transaction) RunAsync() <-chan error {
	out := make(chan error, 1)
	if err := t.start_(); err != nil {
		out <- err
		return out
	}
	go func() {
		t.await()
		out <- t.Err()
	}()
	return out
}

// start_ validates the flow graph, begins the engine transaction, and submits
// the first phase. Step 1 of the Appendix A.1 walkthrough: the dispatcher
// (the thread that received the request) enqueues the first phase's actions,
// or, under Run, keeps a single-action phase to execute itself.
func (t *Transaction) start_() error {
	if t.started {
		return fmt.Errorf("dora: transaction already started")
	}
	t.started = true
	if t.sys.stopped.Load() {
		return ErrSystemStopped
	}
	// Pre-resolve routing for every action so an unbound table fails fast.
	for _, phase := range t.phases {
		for _, a := range phase {
			if a.Table == "" || a.Work == nil {
				return fmt.Errorf("dora: action needs a table and a body")
			}
			if len(a.Key) > 0 || a.Broadcast {
				if _, err := t.sys.allExecutors(a.Table); err != nil {
					return err
				}
			}
		}
	}
	// Admission gate: refuse entry (before the engine transaction begins, so
	// a shed arrival costs no log record and no executor work) while queues
	// or the log are past their watermarks.
	if c := t.sys.admission; c != nil {
		if err := c.admit(); err != nil {
			return err
		}
		t.admitted = true
	}
	t.start = time.Now()
	if t.budget <= 0 {
		t.budget = t.sys.cfg.TxnDeadline
	}
	if t.budget > 0 {
		t.deadline = t.start.Add(t.budget)
	}
	t.txn = t.eng.Begin()
	t.rvpBuf = rvpSlicePool.Get().(*[]rvp)
	if s := *t.rvpBuf; cap(s) >= len(t.phases) {
		s = s[:len(t.phases)]
		for i := range s {
			s[i].remaining.Store(0)
		}
		t.rvps = s
	} else {
		t.rvps = make([]rvp, len(t.phases))
		*t.rvpBuf = t.rvps
	}
	if t.NumActions() == 0 {
		t.finalize()
		return nil
	}
	t.submitPhase(0, -1)
	return nil
}

// submitPhase routes and enqueues every action of the phase. The incoming
// queues of all target executors are latched in the global executor order
// before any action is enqueued, so the submission appears atomic and two
// transactions with the same flow graph can never deadlock (§4.2.3).
// Unordered actions are enqueued individually before the ordered group, and
// secondary actions then execute inline on the calling thread, which is
// identified by worker (-1 for the dispatcher). A flow in inline mode whose
// phase is a single routed action skips the queue: the action goes to the
// Run caller (see Transaction.inline).
func (t *Transaction) submitPhase(idx, worker int) {
	if !t.running() {
		return
	}
	// Phase-boundary deadline check: a transaction out of budget aborts here
	// instead of enqueueing another phase of doomed work.
	if err := t.checkDeadline(); err != nil {
		t.fail(err)
		return
	}
	// Skip empty phases.
	for idx < len(t.phases) && len(t.phases[idx]) == 0 {
		idx++
	}
	if idx >= len(t.phases) {
		t.finalize()
		return
	}
	phase := t.phases[idx]
	clock := t.rvpClockStart()

	type target struct {
		ex  *Executor
		act *boundAction
	}
	var targets, free []target
	var secondaries []*boundAction
	// failSubmit recycles the not-yet-enqueued actions before aborting.
	failSubmit := func(err error) {
		for _, tg := range targets {
			releaseBoundAction(tg.act)
		}
		for _, tg := range free {
			releaseBoundAction(tg.act)
		}
		recycleBoundActions(secondaries)
		t.rvpClockStop(clock)
		t.fail(err)
	}
	for _, a := range phase {
		switch {
		case a.Broadcast:
			exs, err := t.sys.allExecutors(a.Table)
			if err != nil {
				failSubmit(err)
				return
			}
			for _, ex := range exs {
				targets = append(targets, target{ex: ex, act: newBoundAction(a, t, idx)})
			}
		case len(a.Key) == 0:
			// Secondary action (§4.2.2): no routing key until it resolves one.
			secondaries = append(secondaries, newBoundAction(a, t, idx))
		case a.Unordered:
			ex, err := t.sys.executorFor(a.Table, a.Key)
			if err != nil {
				failSubmit(err)
				return
			}
			free = append(free, target{ex: ex, act: newBoundAction(a, t, idx)})
		default:
			ex, err := t.sys.executorFor(a.Table, a.Key)
			if err != nil {
				failSubmit(err)
				return
			}
			targets = append(targets, target{ex: ex, act: newBoundAction(a, t, idx)})
		}
	}
	t.rvps[idx].remaining.Store(int32(len(targets) + len(free) + len(secondaries)))
	t.dispatchN += len(targets) + len(free) + len(secondaries)
	if t.inline && len(targets) == 1 && len(free) == 0 && len(secondaries) == 0 {
		t.nextEx, t.next = targets[0].ex, targets[0].act
		t.rvpClockStop(clock)
		return
	}
	t.inline = false

	// Unordered actions go out first, one enqueue each, so their executors
	// start while the ordered group below is still latching queues.
	for _, tg := range free {
		tg.ex.enqueueAction(tg.act)
	}

	// Latch the queues of all distinct target executors in global order.
	distinct := make([]*Executor, 0, len(targets))
	seen := make(map[*Executor]bool, len(targets))
	for _, tg := range targets {
		if !seen[tg.ex] {
			seen[tg.ex] = true
			distinct = append(distinct, tg.ex)
		}
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i].global < distinct[j].global })
	for _, ex := range distinct {
		ex.lockQueue()
	}
	for _, tg := range targets {
		tg.ex.enqueueActionLocked(tg.act)
	}
	for i := len(distinct) - 1; i >= 0; i-- {
		distinct[i].unlockQueue()
	}
	t.rvpClockStop(clock)

	// Secondary actions run on this thread (the previous phase's RVP thread,
	// or the dispatcher for phase 0), one after another. They are index
	// lookups that forward the record accesses to the owning executors, so a
	// hand-off to another goroutine would cost more than the lookup itself.
	for i, ba := range secondaries {
		if !t.beginExec() {
			recycleBoundActions(secondaries[i:])
			return
		}
		t.sys.statSecondaryInline.Add(1)
		c := t.rvpClockStart()
		err := ba.action.Work(t.newScope(nil, idx, worker))
		t.rvpClockStop(c)
		t.endExec()
		if err != nil {
			t.fail(err)
			recycleBoundActions(secondaries[i:])
			return
		}
		t.actionDone(ba, worker)
		releaseBoundAction(ba)
	}
}

// forward attaches a follow-on primary action to the (still-open) phase of the
// forwarding scope and enqueues it to the executor owning its routing key; see
// Scope.Forward. The RVP increment happens before the enqueue and before the
// forwarding action reports its own completion, so the phase cannot close
// early.
func (t *Transaction) forward(a *Action, from *Scope) error {
	if a.Table == "" || a.Work == nil {
		return fmt.Errorf("dora: forwarded action needs a table and a body")
	}
	if len(a.Key) == 0 || a.Broadcast {
		return fmt.Errorf("dora: forwarded action must be a routed primary action")
	}
	if t.sys == nil {
		// Thread-to-transaction (RunConventional): no executor to route to.
		return a.Work(from)
	}
	phase := from.phase
	if !t.running() {
		return fmt.Errorf("dora: cannot forward, transaction is no longer running")
	}
	ex, err := t.sys.executorFor(a.Table, a.Key)
	if err != nil {
		return err
	}
	if t.inline {
		t.inline = false // the forwarded action may finish the phase elsewhere
	}
	t.rvps[phase].remaining.Add(1)
	t.sys.statForwarded.Add(1)
	ex.enqueueAction(newBoundAction(a, t, phase))
	return nil
}

// rvpClockStart / rvpClockStop attribute time spent on the RVP thread —
// routing, enqueueing, and inline secondary execution — to the transaction's
// critical-path accounting.
func (t *Transaction) rvpClockStart() time.Time {
	if t.sys.collector() == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *Transaction) rvpClockStop(start time.Time) {
	if start.IsZero() {
		return
	}
	t.rvpNanos.Add(int64(time.Since(start)))
}

// recycleBoundActions returns unexecuted actions to the pool.
func recycleBoundActions(bas []*boundAction) {
	for _, ba := range bas {
		releaseBoundAction(ba)
	}
}

// actionDone reports an action's completion to its phase RVP; the caller that
// zeroes the RVP initiates the next phase or, for the terminal RVP, the
// commit (steps 4-5 and 9 of the walkthrough). worker identifies the calling
// thread, which runs the next phase's secondary actions.
func (t *Transaction) actionDone(a *boundAction, worker int) {
	if t.rvps[a.phase].remaining.Add(-1) != 0 {
		return
	}
	if a.phase == len(t.phases)-1 {
		t.finalize()
		return
	}
	t.submitPhase(a.phase+1, worker)
}

// isParticipant reports whether the executor holds (or held) local locks on
// behalf of this transaction. Region gates use it to recognize flows the
// shrinking side of a boundary move has already served: deferring those would
// deadlock the drain that waits for their locks.
func (t *Transaction) isParticipant(e *Executor) bool {
	t.partMu.Lock()
	defer t.partMu.Unlock()
	_, ok := t.participants[e]
	return ok
}

// registerParticipant records that the executor holds local locks on behalf of
// this transaction, so the commit/abort completion message reaches it. It
// returns false when the transaction is no longer running, in which case the
// caller must not execute the action.
func (t *Transaction) registerParticipant(e *Executor) bool {
	t.partMu.Lock()
	defer t.partMu.Unlock()
	if !t.running() {
		return false
	}
	t.participants[e] = struct{}{}
	return true
}

// finalize commits the transaction: it hands the commit to the engine's
// group-commit pipeline and returns without waiting for the log, so the
// executor that zeroed the terminal RVP keeps processing other transactions'
// actions while the flush is in flight (steps 9-12 of Appendix A.1: one-off
// log flush, async lock release). The lock-releasing completion messages go
// out early, before the flush; the client is released once the commit is
// durable. A transaction that changed nothing has no commit record to flush:
// when the log already covers every commit it could have read, the engine
// acknowledges it on this thread, inside CommitAsync, and the client is
// released before finalize returns; the thread then yields once, or, if it
// is a Run caller driving its own flow, Run does after it lets go of the
// dataset.
func (t *Transaction) finalize() {
	if !t.state.CompareAndSwap(flowRunning, flowCommitted) {
		return
	}
	if col := t.sys.collector(); col != nil {
		// The critical path ends when the terminal RVP fires: commit
		// durability is pipelined off it, so this measures what
		// intra-transaction parallelism can actually shorten.
		col.ObserveCriticalPath(time.Since(t.start))
		col.ObserveRVPThread(time.Duration(t.rvpNanos.Load()))
	}
	// Every action has reported (the terminal RVP fired) and no new phase can
	// start, so the rvp slice and shared map are unreachable: recycle them.
	if t.rvpBuf != nil {
		*t.rvpBuf = t.rvps
		t.rvps = nil
		rvpSlicePool.Put(t.rvpBuf)
		t.rvpBuf = nil
	}
	t.sharedMu.Lock()
	shared := t.shared
	t.shared = nil
	t.sharedMu.Unlock()
	if shared != nil {
		clear(shared)
		sharedPool.Put(shared)
	}
	// Early lock release: the completion messages that free the local locks
	// go out as soon as the commit record has its LSN and its completion is
	// registered — before it is durable (for a read-only transaction, as soon
	// as its ack is decided). A dependent that sees this transaction's
	// effects commits at a higher LSN, so its completion (commit epoch) and
	// client ack both follow this one's (engine.CommitAsync). The state
	// already left flowRunning (CAS above), so the broadcast cannot race a
	// completeAbort — only one of the two paths ever runs.
	inlineAck := t.eng.CommitAsync(t.txn, func() {
		t.broadcastCompletions()
		if col := t.sys.collector(); col != nil {
			col.ObserveLockHold(time.Since(t.start))
		}
	}, func(err error) {
		if err != nil {
			t.errMu.Lock()
			t.err = err
			t.errMu.Unlock()
		} else if col := t.sys.collector(); col != nil {
			col.TxnCommitted(time.Since(t.start))
		}
		t.releaseAdmission()
		close(t.done)
	})
	if inlineAck {
		if t.inline {
			t.inlineAck = true
		} else {
			runtime.Gosched()
		}
	}
}

// releaseAdmission returns the transaction's admission credit. It is called
// from the finalize commit callback or from fail — never both, the state CAS
// admits exactly one — so the credit is released exactly once.
func (t *Transaction) releaseAdmission() {
	if t.admitted {
		t.admitted = false
		t.sys.admission.release()
	}
}

// fail aborts the transaction: the first failure wins, the engine rolls back
// the transaction's changes, and completion messages release the local locks
// held on its behalf. When an action body is mid-Work on another thread (a
// timeout or a sibling's failure can fire at any moment), the rollback and
// the lock-releasing broadcast are deferred to that execution's retirement
// (endExec): undoing concurrently with a still-running mutation would let
// the mutation survive the abort, and releasing local locks before the undo
// lands would hand waiters a torn read. The client is answered only after
// the rollback, so a failed Run never returns while its changes are visible.
func (t *Transaction) fail(cause error) {
	// errMu spans the CAS so that a deferred abort completing on another
	// thread cannot answer the client before the cause is recorded.
	t.errMu.Lock()
	if !t.state.CompareAndSwap(flowRunning, flowAborted) {
		t.errMu.Unlock()
		return
	}
	t.err = cause
	t.errMu.Unlock()
	// The CAS above stops new executions (beginExec re-checks the state
	// after incrementing), so: either we observe zero in-flight executions
	// and abort here, or whoever is in flight observes flowAborted on the
	// way out and aborts there.
	if t.execs.Load() == 0 {
		t.completeAbort()
	}
}

// beginExec registers an action body about to execute on behalf of this
// transaction; it returns false (after undoing the registration) when the
// flow is no longer running and the caller must drop the action.
func (t *Transaction) beginExec() bool {
	t.execs.Add(1)
	if !t.running() {
		t.endExec()
		return false
	}
	return true
}

// endExec retires an in-flight action execution; the last one out completes
// an abort that fail() deferred while this execution was mid-Work.
func (t *Transaction) endExec() {
	if t.execs.Add(-1) == 0 && t.state.Load() == flowAborted {
		t.completeAbort()
	}
}

// completeAbort performs the abort's side effects exactly once: the engine
// rollback, the admission-credit release, the completion broadcast that
// releases the transaction's local locks (strictly after the rollback, so a
// woken waiter never reads state that is still being undone), and the
// client's answer.
func (t *Transaction) completeAbort() {
	if !t.abortDone.CompareAndSwap(false, true) {
		return
	}
	if t.txn != nil {
		_ = t.eng.Abort(t.txn)
	}
	t.releaseAdmission()
	t.broadcastCompletions()
	close(t.done)
}

// broadcastCompletions enqueues the transaction-completion message to every
// participant executor. It must be called exactly once, after the state left
// flowRunning (so no new participants can register: registerParticipant
// checks the state under partMu before touching the map, which also makes it
// safe to recycle the map here).
func (t *Transaction) broadcastCompletions() {
	t.partMu.Lock()
	parts := t.participants
	t.participants = nil
	t.partMu.Unlock()
	for ex := range parts {
		ex.enqueueCompletion(t.txnID())
	}
	if parts != nil {
		clear(parts)
		participantsPool.Put(parts)
	}
}
