package dora

import "dora/internal/storage"

// localLockTable is an executor's thread-local lock table (§4.1.3). Conflict
// resolution happens at the action-identifier level: identifiers may cover
// only a prefix of the routing fields, so the scheme behaves like key-prefix
// locks — two identifiers conflict when one is a prefix of the other (or they
// are equal) and at least one of the requests is exclusive. Local locks are
// held until the owning transaction commits or aborts.
//
// Blocked actions are parked on the wait list of the entry that blocked them,
// so releasing a transaction's locks returns exactly the actions that may now
// be runnable — the executor never rescans unrelated blocked work.
//
// The table is accessed only by the dataset's owner (the executor goroutine,
// or a Run caller executing an action inline; one at a time, see Executor),
// so it needs no internal synchronization; that is precisely the "much
// lighter-weight thread-local locking mechanism" the paper substitutes for
// the centralized lock manager.
type localLockTable struct {
	// entries maps the exact identifier to its lock state.
	entries map[string]*localLock
	// waiting is the number of actions parked across all wait lists.
	waiting int
}

// localLock is the state of one locked identifier.
type localLock struct {
	key storage.Key
	// holders maps transaction id to the number of acquisitions (merged
	// actions of the same transaction may re-acquire).
	holders map[uint64]int
	mode    Mode
	// waiters holds the actions blocked on this entry, in arrival order. The
	// owning executor retries them when the entry is released; an action that
	// still conflicts elsewhere re-parks on the new blocking entry, so FIFO
	// order within one identifier is preserved.
	waiters []*boundAction
}

func newLocalLockTable() *localLockTable {
	return &localLockTable{entries: make(map[string]*localLock)}
}

// prefixRelated reports whether two identifiers refer to overlapping record
// sets under key-prefix semantics.
func prefixRelated(a, b storage.Key) bool {
	return a.HasPrefix(b) || b.HasPrefix(a)
}

// conflicting returns an entry that blocks a request (key, mode, txn), or nil
// when the request can be granted. Grants are fair in arrival order: a request
// that is compatible with the current holders still parks behind already
// waiting actions (otherwise a continuous stream of shared holders starves a
// parked exclusive request forever — under the TPC-C mix, NewOrder's shared
// warehouse/customer probes would starve Payment's exclusive updates). The
// only exception is a transaction re-acquiring a lock it already holds, which
// must never wait (multi-phase flows re-acquire their first phase's claims).
func (lt *localLockTable) conflicting(key storage.Key, mode Mode, txn uint64) *localLock {
	for _, e := range lt.entries {
		if !prefixRelated(key, e.key) {
			continue
		}
		if _, own := e.holders[txn]; own {
			// Reentrant: shared-on-shared, or any mode while the requester is
			// the sole holder. An upgrade alongside other shared holders still
			// conflicts.
			if (mode == Shared && e.mode == Shared) || len(e.holders) == 1 {
				continue
			}
			return e
		}
		if len(e.waiters) > 0 {
			return e
		}
		if mode == Shared && e.mode == Shared {
			continue
		}
		return e
	}
	return nil
}

// grant records the (conflict-free) acquisition.
func (lt *localLockTable) grant(key storage.Key, mode Mode, txn uint64) {
	ks := string(key)
	e := lt.entries[ks]
	if e == nil {
		e = &localLock{key: append(storage.Key(nil), key...), holders: make(map[uint64]int), mode: mode}
		lt.entries[ks] = e
	}
	e.holders[txn]++
	if mode == Exclusive {
		e.mode = Exclusive
	}
}

// acquire attempts to take the local lock. It returns false when the request
// conflicts with a lock held by another transaction.
func (lt *localLockTable) acquire(key storage.Key, mode Mode, txn uint64) bool {
	if lt.conflicting(key, mode, txn) != nil {
		return false
	}
	lt.grant(key, mode, txn)
	return true
}

// acquireOrBlock attempts to take the action's local lock; on conflict it
// parks the action on the blocking entry's wait list and returns false.
func (lt *localLockTable) acquireOrBlock(a *boundAction) bool {
	key, mode, txn := a.lockKey(), a.action.Mode, a.flow.txnID()
	if blocker := lt.conflicting(key, mode, txn); blocker != nil {
		blocker.waiters = append(blocker.waiters, a)
		lt.waiting++
		return false
	}
	lt.grant(key, mode, txn)
	return true
}

// ungrant undoes an acquisition that was just granted but whose flow died
// before the action could register as a participant. Only the new hold is
// removed: any earlier holds stay (they imply the executor is a registered
// participant, so the transaction's completion message — sent only after the
// engine rollback finishes — performs the full release). Waiters are left
// parked rather than run against a possibly still-rolling-back transaction;
// an entry can only be left empty when it was freshly created by the undone
// grant, in which case it has no waiters. The unreachable empty-with-waiters
// case returns the waiters so the caller can requeue them instead of
// stranding them.
func (lt *localLockTable) ungrant(key storage.Key, txn uint64) []*boundAction {
	ks := string(key)
	e := lt.entries[ks]
	if e == nil {
		return nil
	}
	if e.holders[txn]--; e.holders[txn] <= 0 {
		delete(e.holders, txn)
	}
	if len(e.holders) > 0 {
		return nil
	}
	delete(lt.entries, ks)
	lt.waiting -= len(e.waiters)
	return e.waiters
}

// release drops every local lock held by the transaction. It returns the
// number of entries released and the parked actions that may now be runnable:
// exactly the wait lists of the entries whose holder set shrank, in per-entry
// arrival order. Waiters of an entry that survives with other holders are
// still retried — a shrinking holder set can unblock them (for example a
// shared-to-exclusive upgrade whose only remaining obstacle was this
// transaction); an action that still conflicts simply re-parks.
func (lt *localLockTable) release(txn uint64) (int, []*boundAction) {
	released := 0
	var runnable []*boundAction
	for ks, e := range lt.entries {
		if _, held := e.holders[txn]; !held {
			continue
		}
		delete(e.holders, txn)
		released++
		if len(e.holders) == 0 {
			delete(lt.entries, ks)
		} else if e.mode == Exclusive {
			// The remaining holders must all be shared (an exclusive entry
			// has a single holder), so downgrade.
			e.mode = Shared
		}
		runnable = append(runnable, e.waiters...)
		lt.waiting -= len(e.waiters)
		e.waiters = nil
	}
	return released, runnable
}

// held reports whether the transaction holds a local lock covering the key in
// the given mode.
func (lt *localLockTable) held(key storage.Key, mode Mode, txn uint64) bool {
	e := lt.entries[string(key)]
	if e == nil {
		return false
	}
	if _, ok := e.holders[txn]; !ok {
		return false
	}
	return mode == Shared || e.mode == Exclusive
}

// heldByTxn reports whether the transaction holds any local lock in this
// table — the test the A.2.1 drain protocol uses to tell transactions this
// executor has already served (and therefore must keep serving, or they can
// never release their locks here) from new transactions it must defer.
func (lt *localLockTable) heldByTxn(txn uint64) bool {
	for _, e := range lt.entries {
		if _, ok := e.holders[txn]; ok {
			return true
		}
	}
	return false
}

// size returns the number of locked identifiers.
func (lt *localLockTable) size() int { return len(lt.entries) }

// waiterCount returns the number of actions parked across all wait lists.
func (lt *localLockTable) waiterCount() int { return lt.waiting }
