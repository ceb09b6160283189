package dora

import (
	"sync"
	"time"

	"dora/internal/engine"
	"dora/internal/storage"
)

// Action is one node of a transaction flow graph: a piece of transaction code
// that accesses a single record or a small set of records of one table
// (§4.1.2). Its identifier (Key) is the routing-field key of the records it
// intends to access; the dispatcher routes the action to the executor owning
// that dataset.
type Action struct {
	// Table is the table the action accesses.
	Table string
	// Key is the action identifier: the routing-field values (or a prefix of
	// them) of the records the action intends to access, encoded with
	// storage.EncodeKey. An empty key makes this a secondary action (§4.2.2),
	// executed by the thread that zeroes the previous phase's RVP, unless
	// Broadcast is set.
	Key storage.Key
	// Mode is the local lock mode the action needs (Shared for reads,
	// Exclusive for updates/inserts/deletes).
	Mode Mode
	// Broadcast enqueues the action to every executor of the table; it is
	// the paper's mechanism for operations that span every dataset, such as
	// table scans. Broadcast actions lock the executor's whole dataset.
	Broadcast bool
	// Unordered dispatches the action to its owning executor outside the
	// phase's ordered queue-latching protocol (§4.2.3): it is enqueued
	// individually, before the ordered group latches its queues, so its
	// executor starts immediately instead of waiting for the slowest sibling
	// dispatch. Only safe for actions that cannot join a local-lock deadlock
	// cycle — e.g. read-only probes of a table no multi-phase flow holds
	// exclusively while waiting elsewhere (NewOrder's per-item ITEM probes).
	Unordered bool
	// Work is the action body. It runs on whichever goroutine owns the
	// action's dataset — the executor goroutine, or a Run caller executing
	// a single-action phase itself (Transaction.Run) — with DORA access options (no centralized locking for probes and
	// updates, row-only locks for inserts and deletes).
	Work func(*Scope) error
}

// Scope is the execution context handed to an action body: engine operations
// pre-bound to the transaction and to its access options, plus a shared
// key/value area used to pass data between actions across rendezvous points.
type Scope struct {
	flow     *Transaction
	executor *Executor
	// phase is the flow-graph phase the action belongs to; forwarded actions
	// join this phase's RVP.
	phase int
	// read is the access option of probes, updates, lookups and scans, write
	// that of inserts and deletes: DORA's (no centralized locking, row locks
	// only) on executors, engine.Conventional() under RunConventional. Both
	// carry the worker id that attributes engine accesses (time, lock stats,
	// traces) to the executing thread: the executor's global ordinal for
	// routed actions and for secondaries run on an executor's RVP thread, -1
	// for secondaries run by the dispatcher, and the caller's id under
	// RunConventional.
	read, write engine.AccessOptions
}

// newScope returns the DORA scope of an action of the given phase run by
// worker (see Scope.read).
func (t *Transaction) newScope(ex *Executor, phase, worker int) *Scope {
	read, write := engine.DORARead(), engine.DORAInsertDelete()
	read.WorkerID, write.WorkerID = worker, worker
	return &Scope{flow: t, executor: ex, phase: phase, read: read, write: write}
}

// Executor returns the executor whose dataset the action runs on, whether
// the dataset's owner is the executor goroutine or a Run caller; it is nil
// for secondary actions, which run on the RVP thread, and under
// RunConventional.
func (s *Scope) Executor() *Executor { return s.executor }

// Probe reads the record with the given primary key. Under DORA it takes no
// centralized lock; isolation comes from the executor's local lock.
func (s *Scope) Probe(table string, pk storage.Key) (storage.Tuple, error) {
	return s.flow.eng.Probe(s.flow.txn, table, pk, s.read)
}

// ProbeRID reads the record at rid (the path used after secondary lookups).
func (s *Scope) ProbeRID(table string, rid storage.RID) (storage.Tuple, error) {
	return s.flow.eng.ProbeRID(s.flow.txn, table, rid, s.read)
}

// Update applies fn to the record with the given primary key.
func (s *Scope) Update(table string, pk storage.Key, fn func(storage.Tuple) (storage.Tuple, error)) error {
	return s.flow.eng.Update(s.flow.txn, table, pk, s.read, fn)
}

// UpdateRID applies fn to the record at rid.
func (s *Scope) UpdateRID(table string, rid storage.RID, fn func(storage.Tuple) (storage.Tuple, error)) error {
	return s.flow.eng.UpdateRID(s.flow.txn, table, rid, s.read, fn)
}

// Insert adds a record. Under DORA the new RID is locked through the
// centralized lock manager (row lock only) to coordinate slot reuse across
// executors (§4.2.1).
func (s *Scope) Insert(table string, tuple storage.Tuple) (storage.RID, error) {
	return s.flow.eng.Insert(s.flow.txn, table, tuple, s.write)
}

// Delete removes the record with the given primary key, under DORA also
// taking the centralized row lock (§4.2.1).
func (s *Scope) Delete(table string, pk storage.Key) error {
	return s.flow.eng.Delete(s.flow.txn, table, pk, s.write)
}

// SecondaryLookup probes a secondary index, returning the matching RIDs and
// their routing-field keys (stored in the index leaves per §4.2.2).
func (s *Scope) SecondaryLookup(table, index string, key storage.Key) ([]engine.IndexMatch, error) {
	return s.flow.eng.SecondaryLookup(s.flow.txn, table, index, key, s.read)
}

// Scan visits the live records of the table in primary-key order. It is meant
// for Broadcast actions; under DORA the scan relies on the broadcast's
// whole-dataset local locks rather than a centralized table lock.
func (s *Scope) Scan(table string, fn func(storage.Tuple) bool) error {
	return s.flow.eng.ScanTable(s.flow.txn, table, s.read, fn)
}

// ScanPrefix visits the live records whose primary key starts with the given
// prefix (for example one subscriber's call-forwarding rows).
func (s *Scope) ScanPrefix(table string, prefix storage.Key, fn func(storage.Tuple) bool) error {
	return s.flow.eng.ScanPrefix(s.flow.txn, table, prefix, s.read, fn)
}

// Put stores a value in the transaction's shared area, used to pass data from
// one phase to the next across an RVP.
func (s *Scope) Put(key string, value any) {
	s.flow.sharedMu.Lock()
	if s.flow.shared == nil {
		s.flow.shared = sharedPool.Get().(map[string]any)
	}
	s.flow.shared[key] = value
	s.flow.sharedMu.Unlock()
}

// Get retrieves a value previously stored with Put.
func (s *Scope) Get(key string) (any, bool) {
	s.flow.sharedMu.Lock()
	defer s.flow.sharedMu.Unlock()
	v, ok := s.flow.shared[key]
	return v, ok
}

// Txn exposes the underlying engine transaction (for advanced uses such as
// conventional-locking escapes in tests).
func (s *Scope) Txn() *engine.Txn { return s.flow.txn }

// Forward routes a follow-on primary action to the executor owning its
// routing key and attaches it to the calling action's phase: the phase's RVP
// does not fire until the forwarded action completes. It is the paper's
// resolve-then-forward mechanism for secondary actions (§4.2.2): the
// secondary action recovers the routing fields of the records it matched
// (SecondaryLookup returns them from the index leaves) and forwards the
// actual record access to the owning executor, so the heap access never runs
// on a non-owning thread. Forwarded actions bypass the phase's ordered
// submission; to stay deadlock-free, forward with an identifier the
// transaction already claimed in its first atomic submission (the TPC-C
// flows forward with the routing-prefix key of their phase-0 claims, which
// re-acquires reentrantly). Under RunConventional the forwarded action runs
// inline, in the same engine transaction, before Forward returns.
func (s *Scope) Forward(a *Action) error {
	return s.flow.forward(a, s)
}

// boundAction is an action bound to its transaction and phase, the unit that
// travels through executor queues.
type boundAction struct {
	action *Action
	flow   *Transaction
	phase  int
	// waitTimer is armed the first time the action parks on a local-lock wait
	// list; it fails the flow with ErrLockWaitTimeout if the action is still
	// waiting when it fires (the cross-executor deadlock backstop). The field
	// is only touched by the dataset's owner.
	waitTimer *time.Timer
}

// lockKey returns the identifier the executor's local lock table uses.
func (b *boundAction) lockKey() storage.Key { return b.action.Key }

// actionPool recycles boundActions; every dispatched action allocates one, so
// the submission hot path pools them.
var actionPool = sync.Pool{New: func() any { return new(boundAction) }}

func newBoundAction(a *Action, flow *Transaction, phase int) *boundAction {
	b := actionPool.Get().(*boundAction)
	b.action, b.flow, b.phase = a, flow, phase
	return b
}

// releaseBoundAction recycles an action that finished (executed or dropped).
// It must never be called while the action is queued or parked on a wait
// list, and callers must not touch the action afterwards.
func releaseBoundAction(b *boundAction) {
	if b.waitTimer != nil {
		b.waitTimer.Stop()
	}
	*b = boundAction{}
	actionPool.Put(b)
}
