package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"dora/internal/lockmgr"
	"dora/internal/storage"
	"dora/internal/wal"
)

// TxnState is the lifecycle state of a transaction.
type TxnState int

const (
	// TxnActive is a running transaction.
	TxnActive TxnState = iota
	// TxnCommitted is a successfully committed transaction.
	TxnCommitted
	// TxnAborted is a rolled-back transaction.
	TxnAborted
)

// String returns the state name.
func (s TxnState) String() string {
	switch s {
	case TxnActive:
		return "active"
	case TxnCommitted:
		return "committed"
	case TxnAborted:
		return "aborted"
	default:
		return fmt.Sprintf("TxnState(%d)", int(s))
	}
}

// Txn is a transaction context. Under DORA a transaction's actions execute on
// several executor threads concurrently, so the context is safe for concurrent
// use by multiple goroutines.
type Txn struct {
	id     uint64
	engine *Engine

	// chainMu serializes the transaction's log appends so its PrevLSN chain
	// stays well-formed even when several executor threads log on its behalf
	// concurrently. The chain lives here — the log manager tracks no
	// per-transaction state, which is what keeps its append path free of a
	// global chain-map mutex.
	chainMu sync.Mutex
	lastLSN wal.LSN

	mu    sync.Mutex
	state TxnState
	// undo holds the transaction's change records in append order; rollback
	// walks it backwards. It mirrors the transaction's log chain without
	// re-reading the log device.
	undo []*wal.Record
	// pending tracks the version-chain nodes this transaction installed, for
	// commit-epoch stamping and rollback popping (mvcc.go).
	pending []pendingVersion
	// cleanups holds the flagged-index-entry removals of this transaction's
	// deletes; commit moves them onto the engine's epoch-stamped queue (the
	// pruner runs them once no snapshot can still need the flagged entries),
	// abort drops them.
	cleanups []indexCleanup
}

// recordPool recycles wal.Record allocations: the ops path builds one record
// per mutation and a writer logs three markers (BEGIN, COMMIT or ABORT, END),
// which at high throughput is the dominant allocation on the critical path. A
// transaction that changes nothing logs no marker at all. A record may be
// recycled as soon as Append returns — the manager encodes it into the log
// buffer synchronously and retains no reference.
var recordPool = sync.Pool{New: func() any { return new(wal.Record) }}

// newRecord returns a zeroed record from the pool.
func newRecord() *wal.Record { return recordPool.Get().(*wal.Record) }

// recycleRecord zeroes a record and returns it to the pool.
func recycleRecord(r *wal.Record) {
	*r = wal.Record{}
	recordPool.Put(r)
}

// appendTxn appends one record on the transaction's behalf, threading the
// transaction's PrevLSN chain through it. BEGIN is logged lazily: the
// transaction's first record is preceded by its BEGIN, which wal.Manager.Append
// registers in the checkpoint active set. A transaction that never logs a
// change therefore never appears in the log at all.
func (e *Engine) appendTxn(t *Txn, r *wal.Record) (wal.LSN, error) {
	t.chainMu.Lock()
	defer t.chainMu.Unlock()
	if t.lastLSN == wal.NilLSN {
		begin := newRecord()
		begin.Txn, begin.Type = t.walID(), wal.RecBegin
		lsn, err := e.log.Append(begin)
		recycleRecord(begin)
		if err != nil {
			return wal.NilLSN, err
		}
		t.lastLSN = lsn
	}
	r.PrevLSN = t.lastLSN
	lsn, err := e.log.Append(r)
	if err == nil {
		t.lastLSN = lsn
	}
	return lsn, err
}

// appendMarker logs one pooled bodyless record (COMMIT/ABORT/END) on the
// chain of a logged transaction and recycles it.
func (e *Engine) appendMarker(t *Txn, typ wal.RecordType, epoch uint64) (wal.LSN, error) {
	r := newRecord()
	r.Txn, r.Type, r.Epoch = t.walID(), typ, epoch
	lsn, err := e.appendTxn(t, r)
	recycleRecord(r)
	return lsn, err
}

// logged reports whether the transaction has appended any record (its lazy
// BEGIN). An unlogged transaction has changed nothing, so it commits and
// aborts without a record.
func (t *Txn) logged() bool {
	t.chainMu.Lock()
	defer t.chainMu.Unlock()
	return t.lastLSN != wal.NilLSN
}

// Begin starts a new transaction. It writes nothing to the log: BEGIN is
// appended with the transaction's first change (appendTxn). If the engine
// has failed or its log has been closed, the returned transaction is already
// aborted and every operation on it fails with ErrTxnDone. If the log device
// has failed permanently the transaction starts active: reads work,
// state-changing operations are refused with ErrReadOnly, and a read-only
// commit succeeds without touching the log — degraded read-only service
// instead of a dead engine.
func (e *Engine) Begin() *Txn {
	id := e.nextTxn.Add(1)
	t := &Txn{id: id, engine: e, state: TxnActive}
	if Health(e.health.Load()) == HealthFailed || e.log.Closed() {
		t.state = TxnAborted
	}
	return t
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// State returns the transaction's current state.
func (t *Txn) State() TxnState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Active reports whether the transaction can still execute operations.
func (t *Txn) Active() bool { return t.State() == TxnActive }

func (t *Txn) lockID() lockmgr.TxnID { return lockmgr.TxnID(t.id) }
func (t *Txn) walID() wal.TxnID      { return wal.TxnID(t.id) }

// recordChange remembers a change record for rollback.
func (t *Txn) recordChange(r *wal.Record) {
	t.mu.Lock()
	t.undo = append(t.undo, r)
	t.mu.Unlock()
}

// addPending remembers a version-chain node the transaction installed.
func (t *Txn) addPending(tbl *Table, rid storage.RID, v *version) {
	t.mu.Lock()
	t.pending = append(t.pending, pendingVersion{tbl: tbl, rid: rid, v: v})
	t.mu.Unlock()
}

// addCleanup remembers a delete's deferred flagged-index-entry removal.
func (t *Txn) addCleanup(tbl *Table, before storage.Tuple, rid storage.RID) {
	t.mu.Lock()
	t.cleanups = append(t.cleanups, indexCleanup{tbl: tbl, before: before, rid: rid})
	t.mu.Unlock()
}

func (t *Txn) ensureActive() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != TxnActive {
		return fmt.Errorf("%w (state %s)", ErrTxnDone, t.state)
	}
	return nil
}

// Commit makes the transaction durable and blocks until it is: it is
// CommitAsync without a release hook, waiting for the completion. It must not
// be called from a log completion callback (see wal.Manager).
func (e *Engine) Commit(t *Txn) error {
	done := make(chan error, 1)
	if e.CommitAsync(t, nil, func(err error) { done <- err }) {
		runtime.Gosched()
	}
	return <-done
}

// CommitAsync is the engine's single commit path. It calls release (when
// non-nil) without waiting for durability, and done(err) exactly once. Its
// callers never block on the log, which is what lets a DORA executor dispatch
// a commit and go on with other transactions' actions.
//
// A logged transaction appends its commit record, raises the engine's commit
// watermark (commitHigh) to that LSN, and registers its completion with the
// log's flusher. done runs there once the record is durable, after
// finishCommit (version stamping, centralized lock release, the END record).
//
// An unlogged transaction changed nothing, so it wrote no BEGIN and writes no
// COMMIT. It may be acknowledged once the log is durable up to every commit
// whose data it could have read, and the commit watermark bounds those: a
// writer raises it before release, and only release lets others read its
// data. If the watermark is already durable, the commit finishes inline on
// the calling goroutine (finishCommit, release, done(nil)). Otherwise the
// completion waits for the watermark on the flusher exactly as a writer's
// does. On a degraded engine, whose log can make nothing durable, it commits
// inline, as it did when it logged a COMMIT: it cannot tell whether it read
// an early-released commit that the device failure lost.
//
// CommitAsync returns true only for an inline ack. Its caller should then
// yield once, as the flusher does after its completions, as soon as it holds
// nothing another goroutine needs (Commit yields at once; a DORA Run caller
// first lets go of the dataset it owns). The ack woke the client, which the
// scheduler queues behind the caller, and a caller that no longer blocks on
// the log would keep the flusher waiting too: without the yield, tm1_mix p99
// rose 55 % on a 2-vCPU host.
//
// release is DORA's early lock release. It runs exactly once, on the calling
// goroutine, on every path. On the flusher path it runs after the completion
// is registered. A dependent that release unblocks appends its commit
// record, and registers its completion, only after that, so it gets a higher
// LSN. Completions run in LSN order (wal.Manager), so the dependent's
// finishCommit, and with it its commit epoch, always follows ours. Its
// durability ack trails ours too, because LSNs become durable in order.
//
// A commit that cannot be vouched for is not acknowledged: done gets an
// error, and the transaction stays active so the caller can roll it back.
// This covers an append the log refuses, and a record (or, for an unlogged
// transaction, a watermark) that a failed device never made durable.
// Durability is judged by that LSN against the durable watermark, not by the
// global error latch: a later flush's failure must not un-acknowledge an
// earlier durable commit.
func (e *Engine) CommitAsync(t *Txn, release func(), done func(error)) (inlineAck bool) {
	if release == nil {
		release = func() {}
	}
	if err := t.ensureActive(); err != nil {
		release()
		done(err)
		return false
	}
	if !t.logged() {
		upto := wal.LSN(e.commitHigh.Load())
		if e.log.FlushedLSN() >= upto || e.Health() == HealthDegradedReadOnly {
			e.finishCommit(t)
			release()
			done(nil)
			return true
		}
		e.ackWhenDurable(t, upto, done)
		release()
		return false
	}
	commitLSN, err := e.appendMarker(t, wal.RecCommit, 0)
	if err != nil {
		e.noteLogError(err)
		release()
		done(fmt.Errorf("engine: logging commit of txn %d: %w", t.id, err))
		return false
	}
	// Raise the commit watermark before release lets anyone read our data.
	for high := e.commitHigh.Load(); uint64(commitLSN) > high; high = e.commitHigh.Load() {
		if e.commitHigh.CompareAndSwap(high, uint64(commitLSN)) {
			break
		}
	}
	e.ackWhenDurable(t, commitLSN, done)
	release()
	return false
}

// ackWhenDurable registers t's completion with the log's flusher: once the
// log is durable up to lsn it runs finishCommit and done(nil). If the device
// fails or closes first, done gets an error and t stays active.
func (e *Engine) ackWhenDurable(t *Txn, lsn wal.LSN, done func(error)) {
	e.log.OnDurable(lsn, func() {
		if e.log.FlushedLSN() < lsn {
			err := e.log.Err()
			if err == nil {
				err = wal.ErrClosed
			}
			e.noteLogError(err)
			done(fmt.Errorf("engine: commit of txn %d not durable: %w", t.id, err))
			return
		}
		e.finishCommit(t)
		done(nil)
	})
}

// finishCommit runs post-commit processing once the commit is acknowledged.
// A logged transaction's runs on the log's flusher, in commit-LSN order, once
// its commit record is durable. An unlogged transaction's runs wherever
// CommitAsync acknowledged it: inline on the committing goroutine, or on the
// flusher; it only releases the centralized locks.
func (e *Engine) finishCommit(t *Txn) {
	t.mu.Lock()
	pending := t.pending
	icleanups := t.cleanups
	undo := t.undo
	t.pending, t.cleanups, t.undo = nil, nil, nil
	t.state = TxnCommitted
	t.mu.Unlock()
	// The change records were only retained for a rollback that can no longer
	// happen; recycle them.
	for _, r := range undo {
		recycleRecord(r)
	}
	// Group-commit epoch advance: assign the next epoch, stamp every version
	// the transaction installed, then publish the epoch — all under one
	// mutex, so a snapshot pinning the epoch either sees none of the
	// transaction's versions (pinned below) or all of them (pinned at or
	// above). Read-only transactions skip this entirely and do not advance
	// the epoch. Because completions run in commit-LSN order, and a
	// transaction that overwrote an early-released row committed at a higher
	// LSN, a dependent's commit epoch is always above its upstream's: a
	// snapshot that sees the dependent sees all of the upstream too.
	//
	// The END record (best-effort: recovery treats the commit record as
	// authoritative, and a log closed mid-shutdown just loses the epoch hint)
	// is appended while still holding epochMu. A fuzzy checkpoint latches its
	// commit epoch and the log's active-transaction set under this same mutex
	// (Checkpoint), so a write transaction is either visible at the pinned
	// epoch AND ended in the log (its effects live in the image, its tail
	// records are skipped on replay) or neither — never both, which would
	// replay its effects on top of an image that already contains them. The
	// LSN order makes the cut closed under early-release dependencies: when
	// a dependent is visible and ended at the cut, so is its upstream, so
	// replay never re-applies an upstream's redo underneath a dependent's
	// write that the image already holds.
	//
	// An unlogged transaction stamps nothing and logs no END. It may still
	// list a pending version: an Insert that failed (a duplicate key, say)
	// after installing one, which the failure already popped.
	logged := t.logged()
	if logged && (len(pending) > 0 || len(icleanups) > 0) {
		e.epochMu.Lock()
		epoch := e.visibleEpoch.Load() + 1
		for _, p := range pending {
			p.v.epoch.Store(epoch)
		}
		if len(icleanups) > 0 {
			e.enqueueCleanups(icleanups, epoch)
		}
		e.visibleEpoch.Store(epoch)
		e.appendMarker(t, wal.RecEnd, epoch) //nolint:errcheck
		e.epochMu.Unlock()
		e.lm.ReleaseAll(t.lockID())
		return
	}
	e.lm.ReleaseAll(t.lockID())
	if logged {
		e.appendMarker(t, wal.RecEnd, 0) //nolint:errcheck
	}
}

// Abort rolls the transaction back: every change is undone youngest-first with
// compensation log records, then the transaction's locks are released.
func (e *Engine) Abort(t *Txn) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	// Rollback proceeds in memory even when the log is closed (the undo list
	// is in hand); the compensation records below are then best-effort. An
	// unlogged transaction has nothing to undo and logs nothing.
	logged := t.logged()
	if logged {
		e.appendMarker(t, wal.RecAbort, 0) //nolint:errcheck
	}

	t.mu.Lock()
	undo := t.undo
	pending := t.pending
	t.undo = nil
	t.pending = nil
	t.cleanups = nil
	t.state = TxnAborted
	t.mu.Unlock()

	var firstErr error
	for i := len(undo) - 1; i >= 0; i-- {
		r := undo[i]
		if err := e.undoRecord(r); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: rollback of txn %d: %w", t.id, err)
		}
		clr := newRecord()
		clr.Txn = t.walID()
		clr.Type = wal.RecCLR
		clr.TableID = r.TableID
		clr.RID = r.RID
		clr.After = r.Before
		clr.UndoNext = r.PrevLSN
		e.appendTxn(t, clr) //nolint:errcheck
		recycleRecord(clr)
	}
	for _, r := range undo {
		recycleRecord(r)
	}
	// Pop the transaction's pending versions only after the undo loop has
	// restored the heap: a snapshot reader that finds no chain trusts the
	// heap image as committed (mvcc.go ordering rule 1).
	for _, p := range pending {
		p.tbl.versions.popPending(p.rid, t.id)
	}
	e.lm.ReleaseAll(t.lockID())
	if logged {
		e.appendMarker(t, wal.RecEnd, 0) //nolint:errcheck
	}
	if col := e.Collector(); col != nil {
		col.TxnAborted()
	}
	// A rollback that could not undo a change leaves in-memory state torn;
	// nothing the engine serves from here on can be trusted.
	if firstErr != nil {
		e.markFailed()
	}
	return firstErr
}

// undoRecord reverses the effect of one change record during rollback.
func (e *Engine) undoRecord(r *wal.Record) error {
	tbl := e.tableByID(TableID(r.TableID))
	if tbl == nil {
		return fmt.Errorf("undo references unknown table %d", r.TableID)
	}
	switch r.Type {
	case wal.RecInsert:
		after, err := storage.DecodeTuple(r.After)
		if err != nil {
			return err
		}
		tbl.removeIndexEntries(after, r.RID)
		return tbl.heap.delete(r.RID)
	case wal.RecDelete:
		before, err := storage.DecodeTuple(r.Before)
		if err != nil {
			return err
		}
		if err := tbl.heap.insertAt(r.RID, r.Before); err != nil {
			return err
		}
		tbl.markIndexEntriesDeleted(before, r.RID, false)
		return nil
	case wal.RecUpdate:
		before, err := storage.DecodeTuple(r.Before)
		if err != nil {
			return err
		}
		after, err := storage.DecodeTuple(r.After)
		if err != nil {
			return err
		}
		if err := tbl.heap.update(r.RID, r.Before); err != nil {
			return err
		}
		if keysDiffer(tbl, before, after) {
			return tbl.replaceIndexEntries(after, before, r.RID)
		}
		return nil
	default:
		return nil
	}
}

// keysDiffer reports whether any index key or the routing key of the table
// differs between the two tuple versions.
func keysDiffer(tbl *Table, a, b storage.Tuple) bool {
	if !bytes.Equal(tbl.PrimaryKey(a), tbl.PrimaryKey(b)) {
		return true
	}
	if !bytes.Equal(tbl.RoutingKey(a), tbl.RoutingKey(b)) {
		return true
	}
	for _, si := range tbl.secondaries {
		ka := storage.EncodeKey(a.Project(si.keyCols)...)
		kb := storage.EncodeKey(b.Project(si.keyCols)...)
		if !bytes.Equal(ka, kb) {
			return true
		}
	}
	return false
}
