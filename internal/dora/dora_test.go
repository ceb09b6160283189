package dora

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dora/internal/engine"
	"dora/internal/metrics"
	"dora/internal/storage"
)

// newBankSystem builds an engine with an accounts table routed on branch id
// and a DORA system with the given number of executors.
func newBankSystem(t testing.TB, executors int) (*System, *engine.Engine) {
	t.Helper()
	e := newBankEngine(t)
	sys := NewSystem(e, Config{TxnTimeout: 5 * time.Second})
	if err := sys.BindTableInts("accounts", 0, 99, executors); err != nil {
		t.Fatalf("BindTableInts: %v", err)
	}
	if err := sys.BindTableInts("history", 0, 99, executors); err != nil {
		t.Fatalf("BindTableInts history: %v", err)
	}
	t.Cleanup(sys.Stop)
	return sys, e
}

// newBankEngine creates the bank schema without binding a DORA system, for
// tests that configure the system themselves.
func newBankEngine(t testing.TB) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{BufferPoolFrames: 512})
	createBankTables(t, e)
	return e
}

// createBankTables creates the bank schema on e and closes e when the test
// ends.
func createBankTables(t testing.TB, e *engine.Engine) {
	t.Helper()
	_, err := e.CreateTable(engine.TableDef{
		Name: "accounts",
		Schema: storage.NewSchema(
			storage.Column{Name: "branch", Kind: storage.KindInt},
			storage.Column{Name: "id", Kind: storage.KindInt},
			storage.Column{Name: "owner", Kind: storage.KindString},
			storage.Column{Name: "balance", Kind: storage.KindFloat},
		),
		PrimaryKey:    []string{"branch", "id"},
		RoutingFields: []string{"branch"},
		Secondary:     []engine.SecondaryDef{{Name: "by_owner", Columns: []string{"owner"}}},
	})
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	_, err = e.CreateTable(engine.TableDef{
		Name: "history",
		Schema: storage.NewSchema(
			storage.Column{Name: "hid", Kind: storage.KindInt},
			storage.Column{Name: "branch", Kind: storage.KindInt},
			storage.Column{Name: "amount", Kind: storage.KindFloat},
		),
		PrimaryKey:    []string{"hid"},
		RoutingFields: []string{"branch"},
	})
	if err != nil {
		t.Fatalf("CreateTable history: %v", err)
	}
	t.Cleanup(func() { e.Close() })
}

func accountTuple(branch, id int64, owner string, balance float64) storage.Tuple {
	return storage.Tuple{
		storage.IntValue(branch),
		storage.IntValue(id),
		storage.StringValue(owner),
		storage.FloatValue(balance),
	}
}

func accountPK(branch, id int64) storage.Key {
	return storage.EncodeKey(storage.IntValue(branch), storage.IntValue(id))
}

// loadAccounts inserts accounts directly through the engine (conventional
// path), one per (branch, id) pair.
func loadAccounts(t testing.TB, e *engine.Engine, branches, perBranch int64, balance float64) {
	t.Helper()
	txn := e.Begin()
	for b := int64(0); b < branches; b++ {
		for i := int64(0); i < perBranch; i++ {
			_, err := e.Insert(txn, "accounts", accountTuple(b, i, fmt.Sprintf("owner-%d-%d", b, i), balance), engine.Conventional())
			if err != nil {
				t.Fatalf("load insert: %v", err)
			}
		}
	}
	if err := e.Commit(txn); err != nil {
		t.Fatalf("load commit: %v", err)
	}
}

func TestSingleActionTransaction(t *testing.T) {
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 4, 2, 100)

	tx := sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "accounts",
		Key:   key(2),
		Mode:  Exclusive,
		Work: func(s *Scope) error {
			return s.Update("accounts", accountPK(2, 0), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(tu[3].Float + 50)
				return tu, nil
			})
		},
	})
	if err := tx.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tx.State() != "committed" {
		t.Fatalf("State = %s", tx.State())
	}

	check := e.Begin()
	got, err := e.Probe(check, "accounts", accountPK(2, 0), engine.Conventional())
	if err != nil || got[3].Float != 150 {
		t.Fatalf("after DORA update: %v %v", got, err)
	}
	e.Commit(check)
}

func TestMultiPhaseFlowWithDependency(t *testing.T) {
	// A Payment-like flow: phase 0 updates the account and stashes the new
	// balance; phase 1 inserts a history record that depends on it.
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 4, 1, 100)

	tx := sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "accounts", Key: key(1), Mode: Exclusive,
		Work: func(s *Scope) error {
			var newBal float64
			err := s.Update("accounts", accountPK(1, 0), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(tu[3].Float - 10)
				newBal = tu[3].Float
				return tu, nil
			})
			s.Put("balance", newBal)
			return err
		},
	})
	tx.Add(1, &Action{
		Table: "history", Key: key(1), Mode: Exclusive,
		Work: func(s *Scope) error {
			bal, ok := s.Get("balance")
			if !ok {
				return errors.New("phase 1 ran before phase 0 finished")
			}
			_, err := s.Insert("history", storage.Tuple{
				storage.IntValue(1001),
				storage.IntValue(1),
				storage.FloatValue(bal.(float64)),
			})
			return err
		},
	})
	if err := tx.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tx.NumPhases() != 2 || tx.NumActions() != 2 {
		t.Fatalf("phases=%d actions=%d", tx.NumPhases(), tx.NumActions())
	}

	check := e.Begin()
	hist, err := e.Probe(check, "history", storage.EncodeKey(storage.IntValue(1001)), engine.Conventional())
	if err != nil || hist[2].Float != 90 {
		t.Fatalf("history record = %v, %v", hist, err)
	}
	e.Commit(check)
}

func TestConflictingTransactionsSerialize(t *testing.T) {
	// Many concurrent DORA transactions increment the same account; the
	// executor's local lock table must serialize them so no update is lost,
	// without any centralized row locks.
	sys, e := newBankSystem(t, 2)
	loadAccounts(t, e, 2, 1, 0)
	col := metrics.NewCollector()
	e.SetCollector(col)

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := sys.NewTransaction()
				tx.Add(0, &Action{
					Table: "accounts", Key: key(1), Mode: Exclusive,
					Work: func(s *Scope) error {
						return s.Update("accounts", accountPK(1, 0), func(tu storage.Tuple) (storage.Tuple, error) {
							tu[3] = storage.FloatValue(tu[3].Float + 1)
							return tu, nil
						})
					},
				})
				if err := tx.Run(); err != nil {
					t.Errorf("Run: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Census check first: the DORA updates themselves must not have touched
	// the centralized lock manager's row locks.
	census := col.LockCensus()
	if census[metrics.LocalLock] == 0 {
		t.Fatal("no thread-local locks recorded")
	}
	if census[metrics.RowLock] != 0 {
		t.Fatalf("DORA updates acquired %d centralized row locks, want 0", census[metrics.RowLock])
	}
	e.SetCollector(nil)

	check := e.Begin()
	got, err := e.Probe(check, "accounts", accountPK(1, 0), engine.Conventional())
	if err != nil || got[3].Float != workers*perWorker {
		t.Fatalf("balance = %v (want %d): lost updates", got[3].Float, workers*perWorker)
	}
	e.Commit(check)
}

func TestParallelActionsOnDifferentExecutors(t *testing.T) {
	// Two actions of the same phase on different branches execute on
	// different executors; both effects must be visible after commit.
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 4, 1, 100)

	tx := sys.NewTransaction()
	for _, branch := range []int64{0, 3} {
		b := branch
		tx.Add(0, &Action{
			Table: "accounts", Key: key(b), Mode: Exclusive,
			Work: func(s *Scope) error {
				return s.Update("accounts", accountPK(b, 0), func(tu storage.Tuple) (storage.Tuple, error) {
					tu[3] = storage.FloatValue(tu[3].Float * 2)
					return tu, nil
				})
			},
		})
	}
	if err := tx.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	check := e.Begin()
	for _, branch := range []int64{0, 3} {
		got, err := e.Probe(check, "accounts", accountPK(branch, 0), engine.Conventional())
		if err != nil || got[3].Float != 200 {
			t.Fatalf("branch %d balance = %v, %v", branch, got, err)
		}
	}
	e.Commit(check)
}

func TestAbortRollsBackAcrossExecutors(t *testing.T) {
	// Phase 0 updates branch 0 (succeeds) and branch 3 (fails): the whole
	// transaction must roll back, including the successful action's update.
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 4, 1, 100)

	boom := errors.New("invalid input")
	tx := sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "accounts", Key: key(0), Mode: Exclusive,
		Work: func(s *Scope) error {
			return s.Update("accounts", accountPK(0, 0), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(0)
				return tu, nil
			})
		},
	})
	tx.Add(0, &Action{
		Table: "accounts", Key: key(3), Mode: Exclusive,
		Work: func(s *Scope) error {
			return boom
		},
	})
	err := tx.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the action error", err)
	}
	if tx.State() != "aborted" {
		t.Fatalf("State = %s", tx.State())
	}

	// The update must have been rolled back, and the executors must have
	// released their local locks so later transactions proceed.
	check := e.Begin()
	got, err := e.Probe(check, "accounts", accountPK(0, 0), engine.Conventional())
	if err != nil || got[3].Float != 100 {
		t.Fatalf("rolled-back balance = %v, %v", got, err)
	}
	e.Commit(check)

	tx2 := sys.NewTransaction()
	tx2.Add(0, &Action{
		Table: "accounts", Key: key(0), Mode: Exclusive,
		Work: func(s *Scope) error {
			return s.Update("accounts", accountPK(0, 0), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(tu[3].Float + 5)
				return tu, nil
			})
		},
	})
	if err := tx2.Run(); err != nil {
		t.Fatalf("transaction after abort: %v (local locks leaked?)", err)
	}
}

// TestFailedRunReturnsAfterRollback: when an action fails while a sibling on
// another executor is still inside Work, the rollback waits for the sibling,
// and Run must not return before that rollback has undone the sibling's
// update.
func TestFailedRunReturnsAfterRollback(t *testing.T) {
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 100, 1, 100)

	boom := errors.New("invalid input")
	updated := make(chan struct{})
	tx := sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "accounts", Key: key(0), Mode: Exclusive,
		Work: func(s *Scope) error {
			if err := s.Update("accounts", accountPK(0, 0), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(0)
				return tu, nil
			}); err != nil {
				return err
			}
			close(updated)
			// Stay in flight until the sibling has failed the transaction,
			// and a little longer, so the abort must wait for this action.
			for tx.State() != "aborted" {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			return nil
		},
	})
	tx.Add(0, &Action{
		Table: "accounts", Key: key(60), Mode: Exclusive,
		Work: func(s *Scope) error {
			<-updated
			return boom
		},
	})
	if err := tx.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the action error", err)
	}
	check := e.Begin()
	got, err := e.Probe(check, "accounts", accountPK(0, 0), engine.Conventional())
	if err != nil || got[3].Float != 100 {
		t.Fatalf("balance after the failed Run returned = %v, %v; want the rolled-back 100", got, err)
	}
	e.Commit(check)
}

func TestBlockedActionResumesAfterCommit(t *testing.T) {
	sys, e := newBankSystem(t, 2)
	loadAccounts(t, e, 2, 1, 0)

	release := make(chan struct{})
	firstStarted := make(chan struct{})
	first := sys.NewTransaction()
	first.Add(0, &Action{
		Table: "accounts", Key: key(0), Mode: Exclusive,
		Work: func(s *Scope) error {
			close(firstStarted)
			<-release
			return s.Update("accounts", accountPK(0, 0), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(1)
				return tu, nil
			})
		},
	})
	firstDone := first.RunAsync()
	<-firstStarted

	second := sys.NewTransaction()
	second.Add(0, &Action{
		Table: "accounts", Key: key(0), Mode: Exclusive,
		Work: func(s *Scope) error {
			return s.Update("accounts", accountPK(0, 0), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(tu[3].Float + 10)
				return tu, nil
			})
		},
	})
	secondDone := second.RunAsync()

	// The second transaction targets the same identifier; it must not finish
	// while the first holds the local lock.
	select {
	case err := <-secondDone:
		t.Fatalf("second transaction finished (%v) while first held the local lock", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first: %v", err)
	}
	if err := <-secondDone; err != nil {
		t.Fatalf("second: %v", err)
	}
	check := e.Begin()
	got, _ := e.Probe(check, "accounts", accountPK(0, 0), engine.Conventional())
	if got[3].Float != 11 {
		t.Fatalf("balance = %v, want 11 (serialized order)", got[3].Float)
	}
	e.Commit(check)
}

func TestBroadcastActionTouchesEveryDataset(t *testing.T) {
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 8, 1, 100)

	var mu sync.Mutex
	visits := 0
	tx := sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "accounts", Broadcast: true, Mode: Shared,
		Work: func(s *Scope) error {
			mu.Lock()
			visits++
			mu.Unlock()
			return nil
		},
	})
	if err := tx.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if visits != 4 {
		t.Fatalf("broadcast action ran on %d executors, want 4", visits)
	}
}

func TestSecondaryActionRunsInline(t *testing.T) {
	// An action with an empty identifier (routing fields unknown) is a
	// secondary action: it runs on the RVP thread, resolves the routing via
	// the secondary index, and the follow-up phase accesses the record
	// through its owning executor.
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 4, 1, 100)

	var routing storage.Key
	var rid storage.RID
	tx := sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "accounts", Key: nil, Mode: Shared,
		Work: func(s *Scope) error {
			if s.Executor() != nil {
				return errors.New("secondary action should not run on an executor")
			}
			matches, err := s.SecondaryLookup("accounts", "by_owner",
				storage.EncodeKey(storage.StringValue("owner-2-0")))
			if err != nil {
				return err
			}
			if len(matches) != 1 {
				return fmt.Errorf("got %d matches", len(matches))
			}
			routing = matches[0].Routing
			rid = matches[0].RID
			return nil
		},
	})
	if err := tx.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !routing.HasPrefix(key(2)) {
		t.Fatalf("routing key = %s, want branch 2", routing)
	}

	// Second transaction: use the recovered routing key to route the heap
	// access to the owning executor.
	tx2 := sys.NewTransaction()
	tx2.Add(0, &Action{
		Table: "accounts", Key: routing, Mode: Exclusive,
		Work: func(s *Scope) error {
			return s.UpdateRID("accounts", rid, func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(777)
				return tu, nil
			})
		},
	})
	if err := tx2.Run(); err != nil {
		t.Fatalf("Run 2: %v", err)
	}
	check := e.Begin()
	got, _ := e.Probe(check, "accounts", accountPK(2, 0), engine.Conventional())
	if got[3].Float != 777 {
		t.Fatalf("balance = %v, want 777", got[3].Float)
	}
	e.Commit(check)
}

func TestRoutingDistributesKeysAcrossExecutors(t *testing.T) {
	sys, _ := newBankSystem(t, 4)
	seen := map[int]bool{}
	for b := int64(0); b < 100; b++ {
		ex, err := sys.executorFor("accounts", key(b))
		if err != nil {
			t.Fatalf("executorFor: %v", err)
		}
		seen[ex.Index()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("keys map to %d executors, want 4", len(seen))
	}
	// Boundary sanity: key below every boundary goes to executor 0, key
	// above every boundary goes to the last executor.
	ex, _ := sys.executorFor("accounts", key(0))
	if ex.Index() != 0 {
		t.Fatalf("low key routed to executor %d", ex.Index())
	}
	ex, _ = sys.executorFor("accounts", key(99))
	if ex.Index() != 3 {
		t.Fatalf("high key routed to executor %d", ex.Index())
	}
	if _, err := sys.executorFor("unknown", key(1)); !errors.Is(err, ErrNoRoutingRule) {
		t.Fatalf("unknown table error = %v", err)
	}
}

func TestSameFlowGraphTransactionsNeverDeadlock(t *testing.T) {
	// §4.2.3: transactions with the same flow graph cannot deadlock because
	// phase submission appears atomic and executors serve FIFO. Hammer two
	// branches with transactions that touch both in one phase.
	sys, e := newBankSystem(t, 2)
	loadAccounts(t, e, 2, 1, 1000)

	const workers = 6
	const perWorker = 30
	var wg sync.WaitGroup
	var failures int32
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := sys.NewTransaction()
				for _, b := range []int64{0, 1} {
					branch := b
					tx.Add(0, &Action{
						Table: "accounts", Key: key(branch), Mode: Exclusive,
						Work: func(s *Scope) error {
							return s.Update("accounts", accountPK(branch, 0), func(tu storage.Tuple) (storage.Tuple, error) {
								tu[3] = storage.FloatValue(tu[3].Float + 1)
								return tu, nil
							})
						},
					})
				}
				if err := tx.Run(); err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failures != 0 {
		t.Fatalf("%d transactions failed (timeout would indicate deadlock)", failures)
	}
	check := e.Begin()
	for _, b := range []int64{0, 1} {
		got, _ := e.Probe(check, "accounts", accountPK(b, 0), engine.Conventional())
		if got[3].Float != 1000+workers*perWorker {
			t.Fatalf("branch %d balance = %v, want %d", b, got[3].Float, 1000+workers*perWorker)
		}
	}
	e.Commit(check)
}

func TestEmptyTransactionCommits(t *testing.T) {
	sys, _ := newBankSystem(t, 2)
	tx := sys.NewTransaction()
	if err := tx.Run(); err != nil {
		t.Fatalf("empty transaction: %v", err)
	}
	if tx.State() != "committed" {
		t.Fatalf("State = %s", tx.State())
	}
	if err := tx.Run(); err == nil {
		t.Fatal("re-running a transaction should fail")
	}
}

func TestUnboundTableFailsFast(t *testing.T) {
	sys, e := newBankSystem(t, 2)
	_, err := e.CreateTable(engine.TableDef{
		Name:       "orphan",
		Schema:     storage.NewSchema(storage.Column{Name: "id", Kind: storage.KindInt}),
		PrimaryKey: []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "orphan", Key: key(1), Mode: Shared,
		Work: func(s *Scope) error { return nil },
	})
	if err := tx.Run(); !errors.Is(err, ErrNoRoutingRule) {
		t.Fatalf("Run = %v, want ErrNoRoutingRule", err)
	}
}

func TestSystemStats(t *testing.T) {
	sys, e := newBankSystem(t, 3)
	loadAccounts(t, e, 3, 1, 0)
	for i := 0; i < 5; i++ {
		tx := sys.NewTransaction()
		tx.Add(0, &Action{
			Table: "accounts", Key: key(int64(i % 3)), Mode: Shared,
			Work: func(s *Scope) error {
				_, err := s.Probe("accounts", accountPK(int64(i%3), 0))
				return err
			},
		})
		if err := tx.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	st := sys.Stats()
	if st.ActionsExecuted < 5 {
		t.Fatalf("ActionsExecuted = %d, want >= 5", st.ActionsExecuted)
	}
	if st.LocalLockAcquisitions < 5 {
		t.Fatalf("LocalLockAcquisitions = %d, want >= 5", st.LocalLockAcquisitions)
	}
	if st.ExecutorCount != 6 { // two tables x three executors
		t.Fatalf("ExecutorCount = %d, want 6", st.ExecutorCount)
	}
}

func TestStopRejectsNewWork(t *testing.T) {
	sys, _ := newBankSystem(t, 2)
	sys.Stop()
	tx := sys.NewTransaction()
	tx.Add(0, &Action{Table: "accounts", Key: key(1), Mode: Shared,
		Work: func(s *Scope) error { return nil }})
	if err := tx.Run(); !errors.Is(err, ErrSystemStopped) {
		t.Fatalf("Run after Stop = %v, want ErrSystemStopped", err)
	}
	if err := sys.BindTableInts("accounts", 0, 9, 2); !errors.Is(err, ErrSystemStopped) {
		t.Fatalf("BindTable after Stop = %v", err)
	}
	sys.Stop() // idempotent
}
