package dora

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"dora/internal/engine"
	"dora/internal/metrics"
	"dora/internal/storage"
)

// TestSecondaryActionsRunInlineInOrder: the secondary actions of a phase run
// on the thread that submits the phase, off every executor, one after another.
func TestSecondaryActionsRunInlineInOrder(t *testing.T) {
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 4, 1, 100)

	var inFlight, maxInFlight atomic.Int32
	tx := sys.NewTransaction()
	for i := 0; i < 4; i++ {
		tx.Add(0, &Action{
			Table: "accounts", Mode: Shared,
			Work: func(s *Scope) error {
				if s.Executor() != nil {
					return errors.New("secondary action ran on an executor")
				}
				cur := inFlight.Add(1)
				defer inFlight.Add(-1)
				for {
					prev := maxInFlight.Load()
					if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
						break
					}
				}
				return nil
			},
		})
	}
	if err := tx.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := maxInFlight.Load(); got != 1 {
		t.Fatalf("max concurrent secondaries = %d, want 1", got)
	}
	st := sys.Stats()
	if st.SecondariesInline != 4 || st.SecondariesParallel != 0 {
		t.Fatalf("stats = parallel %d inline %d, want 0/4", st.SecondariesParallel, st.SecondariesInline)
	}
}

// TestSecondaryForwardsPrimaryAction exercises resolve-then-forward: a
// secondary action resolves a routing key through the secondary index and
// forwards the record access to the owning executor; the phase's RVP must
// wait for the forwarded action, so the next phase sees its effect. Serial
// runs one such transaction; Parallel runs one per account concurrently, so
// forwards from different dispatchers meet on the executors.
func TestSecondaryForwardsPrimaryAction(t *testing.T) {
	t.Run("Serial", func(t *testing.T) {
		sys, e := newBankSystem(t, 4)
		loadAccounts(t, e, 4, 1, 100)
		if err := runForwardTxn(sys, 2); err != nil {
			t.Fatal(err)
		}
		if st := sys.Stats(); st.ActionsForwarded != 1 {
			t.Fatalf("ActionsForwarded = %d, want 1", st.ActionsForwarded)
		}
	})
	t.Run("Parallel", func(t *testing.T) {
		const accounts = 4
		sys, e := newBankSystem(t, 4)
		loadAccounts(t, e, accounts, 1, 100)
		errs := make(chan error, accounts)
		for b := int64(0); b < accounts; b++ {
			go func(b int64) { errs <- runForwardTxn(sys, b) }(b)
		}
		for i := 0; i < accounts; i++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
		if st := sys.Stats(); st.ActionsForwarded != accounts {
			t.Fatalf("ActionsForwarded = %d, want %d", st.ActionsForwarded, accounts)
		}
	})
}

// runForwardTxn runs one transaction whose phase-0 secondary action finds
// account (branch, 0) by owner and forwards an +11 update to its executor,
// and whose phase 1 reads the balance back. It fails unless phase 1 saw the
// update (balance 111) and the forwarded action ran on an accounts executor.
func runForwardTxn(sys *System, branch int64) error {
	var forwardedOn *Executor
	tx := sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "accounts", Mode: Exclusive,
		Work: func(s *Scope) error {
			matches, err := s.SecondaryLookup("accounts", "by_owner",
				storage.EncodeKey(storage.StringValue(fmt.Sprintf("owner-%d-0", branch))))
			if err != nil {
				return err
			}
			if len(matches) != 1 {
				return fmt.Errorf("got %d matches", len(matches))
			}
			m := matches[0]
			return s.Forward(&Action{
				Table: "accounts", Key: m.Routing, Mode: Exclusive,
				Work: func(s *Scope) error {
					forwardedOn = s.Executor()
					return s.UpdateRID("accounts", m.RID, func(tu storage.Tuple) (storage.Tuple, error) {
						tu[3] = storage.FloatValue(tu[3].Float + 11)
						return tu, nil
					})
				},
			})
		},
	})
	var seen float64
	tx.Add(1, &Action{
		Table: "accounts", Key: key(branch), Mode: Shared,
		Work: func(s *Scope) error {
			tu, err := s.Probe("accounts", accountPK(branch, 0))
			if err != nil {
				return err
			}
			seen = tu[3].Float
			return nil
		},
	})
	if err := tx.Run(); err != nil {
		return fmt.Errorf("account %d: Run: %w", branch, err)
	}
	if seen != 111 {
		return fmt.Errorf("account %d: phase 1 saw balance %v, want 111 (forwarded update applied first)", branch, seen)
	}
	if forwardedOn == nil {
		return fmt.Errorf("account %d: forwarded action did not run on an executor", branch)
	}
	if forwardedOn.Table() != "accounts" {
		return fmt.Errorf("account %d: forwarded action ran on executor for %q", branch, forwardedOn.Table())
	}
	return nil
}

// TestForwardValidation rejects forwards that are not routed primary actions.
func TestForwardValidation(t *testing.T) {
	sys, e := newBankSystem(t, 2)
	loadAccounts(t, e, 2, 1, 100)
	run := func(bad *Action) error {
		tx := sys.NewTransaction()
		tx.Add(0, &Action{
			Table: "accounts", Mode: Shared,
			Work: func(s *Scope) error { return s.Forward(bad) },
		})
		return tx.Run()
	}
	if err := run(&Action{Table: "accounts", Work: func(*Scope) error { return nil }}); err == nil {
		t.Fatalf("forwarding a keyless action should fail the transaction")
	}
	if err := run(&Action{Table: "accounts", Key: key(1), Broadcast: true,
		Work: func(*Scope) error { return nil }}); err == nil {
		t.Fatalf("forwarding a broadcast action should fail the transaction")
	}
	if err := run(&Action{Table: "accounts", Key: key(1)}); err == nil {
		t.Fatalf("forwarding a bodyless action should fail the transaction")
	}
}

// TestSecondaryFailureAbortsFlow: an error from a secondary action aborts the
// whole transaction, including its routed siblings' effects.
func TestSecondaryFailureAbortsFlow(t *testing.T) {
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 4, 1, 100)

	boom := errors.New("secondary boom")
	tx := sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "accounts", Key: key(1), Mode: Exclusive,
		Work: func(s *Scope) error {
			return s.Update("accounts", accountPK(1, 0), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(999)
				return tu, nil
			})
		},
	})
	tx.Add(0, &Action{
		Table: "accounts", Mode: Shared,
		Work: func(s *Scope) error { return boom },
	})
	if err := tx.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want %v", err, boom)
	}
	check := e.Begin()
	got, err := e.Probe(check, "accounts", accountPK(1, 0), engine.Conventional())
	if err != nil || got[3].Float != 100 {
		t.Fatalf("balance after abort = %v (%v), want 100", got, err)
	}
	e.Commit(check)
}

// TestSecondaryWorkerAttribution: engine accesses from a secondary action
// carry the id of the thread that ran it into record-access traces: the
// executor that zeroed the previous phase's RVP, or -1 for the dispatcher.
func TestSecondaryWorkerAttribution(t *testing.T) {
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 4, 1, 100)

	var phase0Worker int
	tx := sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "accounts", Mode: Shared,
		Work: func(s *Scope) error {
			phase0Worker = s.read.WorkerID
			return nil
		},
	})
	if err := tx.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if phase0Worker != -1 {
		t.Fatalf("phase-0 secondary ran as worker %d, want -1 (the dispatcher)", phase0Worker)
	}

	rec := engine.NewTraceRecorder()
	e.SetTraceHook(rec.Record)
	defer e.SetTraceHook(nil)
	var rvpWorker, phase1Worker int
	tx = sys.NewTransaction()
	tx.Add(0, &Action{
		Table: "accounts", Key: key(1), Mode: Shared,
		Work: func(s *Scope) error {
			rvpWorker = s.read.WorkerID
			return nil
		},
	})
	tx.Add(1, &Action{
		Table: "accounts", Mode: Shared,
		Work: func(s *Scope) error {
			phase1Worker = s.read.WorkerID
			_, err := s.Probe("accounts", accountPK(3, 0))
			return err
		},
	})
	if err := tx.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rvpWorker < 0 || phase1Worker != rvpWorker {
		t.Fatalf("phase-1 secondary ran as worker %d, want %d (the executor that zeroed RVP1)", phase1Worker, rvpWorker)
	}
	events := rec.Events()
	if len(events) == 0 {
		t.Fatalf("no trace events recorded")
	}
	for _, ev := range events {
		if ev.WorkerID != rvpWorker {
			t.Fatalf("trace event attributed to worker %d, want %d", ev.WorkerID, rvpWorker)
		}
	}
}

// TestCriticalPathHistograms: DORA runs with a collector record per-txn
// critical-path and RVP-thread-time histograms.
func TestCriticalPathHistograms(t *testing.T) {
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 4, 1, 100)
	col := metrics.NewCollector()
	e.SetCollector(col)
	defer e.SetCollector(nil)

	for i := int64(0); i < 10; i++ {
		tx := sys.NewTransaction()
		acct := i % 4
		tx.Add(0, &Action{
			Table: "accounts", Key: key(acct), Mode: Shared,
			Work: func(s *Scope) error {
				_, err := s.Probe("accounts", accountPK(acct, 0))
				return err
			},
		})
		tx.Add(0, &Action{
			Table: "accounts", Mode: Shared,
			Work: func(s *Scope) error { return nil },
		})
		if err := tx.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if cp := col.CriticalPath(); cp.Count != 10 {
		t.Fatalf("critical-path histogram has %d observations, want 10", cp.Count)
	}
	if rt := col.RVPThreadTime(); rt.Count != 10 {
		t.Fatalf("rvp-thread histogram has %d observations, want 10", rt.Count)
	}
}

// TestTransactionPoolReuse drives enough sequential transactions through the
// pooled start path to recycle rvp slices, participants maps, and shared
// maps, and verifies effects and isolation stay correct.
func TestTransactionPoolReuse(t *testing.T) {
	sys, e := newBankSystem(t, 4)
	loadAccounts(t, e, 4, 1, 0)

	for i := 0; i < 200; i++ {
		acct := int64(i % 4)
		tx := sys.NewTransaction()
		tx.Add(0, &Action{
			Table: "accounts", Key: key(acct), Mode: Exclusive,
			Work: func(s *Scope) error {
				if err := s.Update("accounts", accountPK(acct, 0), func(tu storage.Tuple) (storage.Tuple, error) {
					tu[3] = storage.FloatValue(tu[3].Float + 1)
					return tu, nil
				}); err != nil {
					return err
				}
				s.Put("acct", acct)
				return nil
			},
		})
		tx.Add(1, &Action{
			Table: "history", Key: key(acct), Mode: Exclusive,
			Work: func(s *Scope) error {
				v, ok := s.Get("acct")
				if !ok || v.(int64) != acct {
					return fmt.Errorf("shared map lost %d: got %v", acct, v)
				}
				return nil
			},
		})
		if err := tx.Run(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	check := e.Begin()
	for b := int64(0); b < 4; b++ {
		tu, err := e.Probe(check, "accounts", accountPK(b, 0), engine.Conventional())
		if err != nil || tu[3].Float != 50 {
			t.Fatalf("account %d balance = %v (%v), want 50", b, tu, err)
		}
	}
	e.Commit(check)
}
