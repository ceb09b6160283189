package dora

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/engine"
	"dora/internal/storage"
)

// TestRoutingBoundaryMoveStress moves routing boundaries via the
// ResourceManager while DORA transactions are in flight (run under -race in
// CI). Every transaction must complete — committed or aborted, never lost —
// the committed effects must all land, executor Stats() must reconcile with
// the completion counts, and every local lock must drain afterwards.
func TestRoutingBoundaryMoveStress(t *testing.T) {
	sys, e := newBankSystem(t, 4) // keys [0,99], boundaries at 25/50/75
	loadAccounts(t, e, 100, 1, 0)

	const (
		workers   = 4
		perWorker = 250
	)
	var committed, aborted atomic.Uint64
	stop := make(chan struct{})

	// The mover wiggles each boundary inside a private window ([15,35],
	// [40,60], [65,85]) so the strictly-increasing constraint always holds.
	var moverWg sync.WaitGroup
	moverWg.Add(1)
	go func() {
		defer moverWg.Done()
		rm := sys.PartitionManager()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := i % 3
			base := int64(25 * (b + 1))
			off := int64(i*7%21) - 10
			if err := rm.MoveBoundary("accounts", b, key(base+off)); err != nil {
				t.Errorf("MoveBoundary(%d, %d): %v", b, base+off, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			for i := 0; i < perWorker; i++ {
				acct := rng.Int63n(100)
				tx := sys.NewTransaction()
				tx.Add(0, &Action{Table: "accounts", Key: key(acct), Mode: Exclusive,
					Work: func(s *Scope) error {
						return s.Update("accounts", accountPK(acct, 0), func(tu storage.Tuple) (storage.Tuple, error) {
							tu[3] = storage.FloatValue(tu[3].Float + 1)
							return tu, nil
						})
					}})
				switch err := tx.Run(); {
				case err == nil:
					committed.Add(1)
				default:
					aborted.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	moverWg.Wait()

	// No lost completions: every submitted transaction resolved.
	total := committed.Load() + aborted.Load()
	if total != workers*perWorker {
		t.Fatalf("completions lost: committed=%d aborted=%d, want %d total",
			committed.Load(), aborted.Load(), workers*perWorker)
	}

	// Stats() reconciles with the completion counts: each transaction has one
	// action, so at least every committed transaction executed one, and the
	// local-lock census covers them.
	st := sys.Stats()
	if st.ActionsExecuted < committed.Load() {
		t.Fatalf("Stats.ActionsExecuted=%d < committed=%d", st.ActionsExecuted, committed.Load())
	}
	if st.LocalLockAcquisitions < committed.Load() {
		t.Fatalf("Stats.LocalLockAcquisitions=%d < committed=%d", st.LocalLockAcquisitions, committed.Load())
	}
	if st.ActionsExecuted > uint64(workers*perWorker) {
		t.Fatalf("Stats.ActionsExecuted=%d > %d submitted actions", st.ActionsExecuted, workers*perWorker)
	}

	// Every local lock drains once the completion messages are processed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		held, waiting := 0, 0
		for _, ex := range sys.Executors("accounts") {
			s := ex.Stats()
			held += s.LocalLocksHeld
			waiting += s.BlockedWaiting
		}
		if held == 0 && waiting == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("local locks not drained: held=%d waiting=%d", held, waiting)
		}
		time.Sleep(time.Millisecond)
	}

	// The committed effects all landed: each committed transaction added 1 to
	// exactly one balance.
	check := e.Begin()
	totalBalance := 0.0
	if err := e.ScanTable(check, "accounts", engine.Conventional(), func(tu storage.Tuple) bool {
		totalBalance += tu[3].Float
		return true
	}); err != nil {
		t.Fatal(err)
	}
	e.Commit(check)
	if totalBalance != float64(committed.Load()) {
		t.Fatalf("balance sum %.0f != committed %d (lost or phantom updates)",
			totalBalance, committed.Load())
	}
}

// TestLockWaitTimeoutResolvesCrossExecutorDeadlock engineers the deadlock the
// local lock tables cannot see — two multi-phase transactions acquiring the
// same two locks on different executors in opposite orders — and asserts the
// lock-wait backstop aborts a victim promptly instead of stalling until the
// transaction timeout.
func TestLockWaitTimeoutResolvesCrossExecutorDeadlock(t *testing.T) {
	sys, e := newBankSystem(t, 2)
	_ = e
	// Rebuild with an aggressive lock-wait bound; newBankSystem's cleanup
	// stops this system's executors too via the engine teardown ordering.
	short := NewSystem(sys.Engine(), Config{TxnTimeout: 30 * time.Second, LockWaitTimeout: 100 * time.Millisecond})
	defer short.Stop()
	if err := short.BindTableInts("accounts", 0, 99, 2); err != nil {
		t.Fatal(err)
	}
	if err := short.BindTableInts("history", 0, 99, 2); err != nil {
		t.Fatal(err)
	}

	bReady := make(chan struct{})
	noop := func(*Scope) error { return nil }

	// A: accounts[10] (phase 0, waits for B's phase 0) -> history[10] (phase 1).
	txA := short.NewTransaction()
	txA.Add(0, &Action{Table: "accounts", Key: key(10), Mode: Exclusive,
		Work: func(*Scope) error { <-bReady; return nil }})
	txA.Add(1, &Action{Table: "history", Key: key(10), Mode: Exclusive, Work: noop})
	// B: history[10] (phase 0) -> accounts[10] (phase 1): the inverted order.
	txB := short.NewTransaction()
	txB.Add(0, &Action{Table: "history", Key: key(10), Mode: Exclusive,
		Work: func(*Scope) error { close(bReady); return nil }})
	txB.Add(1, &Action{Table: "accounts", Key: key(10), Mode: Exclusive, Work: noop})

	start := time.Now()
	chA, chB := txA.RunAsync(), txB.RunAsync()
	errA, errB := <-chA, <-chB
	elapsed := time.Since(start)

	if errA != nil && !errors.Is(errA, ErrLockWaitTimeout) {
		t.Fatalf("txA failed with %v, want nil or ErrLockWaitTimeout", errA)
	}
	if errB != nil && !errors.Is(errB, ErrLockWaitTimeout) {
		t.Fatalf("txB failed with %v, want nil or ErrLockWaitTimeout", errB)
	}
	if errA == nil && errB == nil {
		t.Fatal("deadlock resolved with no victim — both transactions committed?")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("deadlock took %v to resolve, want the ~100ms lock-wait bound", elapsed)
	}
}

// TestSecondaryForwardingBoundaryMoveStress mixes the resolve-then-forward
// path with mid-flight ResourceManager boundary moves (run under -race in
// CI): every transaction claims its account's local lock, resolves the
// account through the by_owner secondary index on the RVP thread, and
// forwards the balance update to the owning executor, while a mover thread
// wiggles the routing boundaries. Transactions may abort (lock-wait victims
// of boundary re-homing) but must never be lost, and the committed effects
// must reconcile exactly with the final balances.
func TestSecondaryForwardingBoundaryMoveStress(t *testing.T) {
	sys, e := newBankSystem(t, 4) // keys [0,99], boundaries at 25/50/75
	loadAccounts(t, e, 100, 1, 0)

	const (
		workers   = 4
		perWorker = 150
	)
	var committed, aborted atomic.Uint64
	stop := make(chan struct{})

	var moverWg sync.WaitGroup
	moverWg.Add(1)
	go func() {
		defer moverWg.Done()
		rm := sys.PartitionManager()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := i % 3
			base := int64(25 * (b + 1))
			off := int64(i*7%21) - 10
			if err := rm.MoveBoundary("accounts", b, key(base+off)); err != nil {
				t.Errorf("MoveBoundary(%d, %d): %v", b, base+off, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 77))
			for i := 0; i < perWorker; i++ {
				acct := rng.Int63n(100)
				owner := storage.EncodeKey(storage.StringValue(fmt.Sprintf("owner-%d-0", acct)))
				tx := sys.NewTransaction()
				// Claim the footprint up front so the forwarded action
				// re-acquires reentrantly, exactly like the TPC-C flows.
				tx.Add(0, &Action{Table: "accounts", Key: key(acct), Mode: Exclusive,
					Work: func(s *Scope) error { return nil }})
				tx.Add(1, &Action{Table: "accounts", Mode: Exclusive,
					Work: func(s *Scope) error {
						matches, err := s.SecondaryLookup("accounts", "by_owner", owner)
						if err != nil {
							return err
						}
						if len(matches) != 1 {
							return fmt.Errorf("owner lookup: %d matches", len(matches))
						}
						m := matches[0]
						return s.Forward(&Action{
							Table: "accounts", Key: m.Routing, Mode: Exclusive,
							Work: func(s *Scope) error {
								return s.UpdateRID("accounts", m.RID, func(tu storage.Tuple) (storage.Tuple, error) {
									tu[3] = storage.FloatValue(tu[3].Float + 1)
									return tu, nil
								})
							},
						})
					}})
				switch err := tx.Run(); {
				case err == nil:
					committed.Add(1)
				default:
					aborted.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	moverWg.Wait()

	total := committed.Load() + aborted.Load()
	if total != workers*perWorker {
		t.Fatalf("completions lost: committed=%d aborted=%d, want %d total",
			committed.Load(), aborted.Load(), workers*perWorker)
	}
	st := sys.Stats()
	if st.ActionsForwarded < committed.Load() {
		t.Fatalf("Stats.ActionsForwarded=%d < committed=%d", st.ActionsForwarded, committed.Load())
	}
	if st.SecondariesInline < committed.Load() {
		t.Fatalf("Stats.SecondariesInline=%d < committed=%d", st.SecondariesInline, committed.Load())
	}

	// The committed effects all landed: each committed transaction added 1 to
	// exactly one balance.
	check := e.Begin()
	totalBalance := 0.0
	if err := e.ScanTable(check, "accounts", engine.Conventional(), func(tu storage.Tuple) bool {
		totalBalance += tu[3].Float
		return true
	}); err != nil {
		t.Fatal(err)
	}
	e.Commit(check)
	if totalBalance != float64(committed.Load()) {
		t.Fatalf("balance sum %.0f != committed %d (lost or phantom updates)",
			totalBalance, committed.Load())
	}
}
