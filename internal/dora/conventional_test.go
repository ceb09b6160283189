package dora

import (
	"errors"
	"reflect"
	"testing"

	"dora/internal/engine"
	"dora/internal/storage"
)

// seedAccount commits one account row on a bare engine.
func seedAccount(t *testing.T, e *engine.Engine, branch, id int64, balance float64) {
	t.Helper()
	txn := e.Begin()
	if _, err := e.Insert(txn, "accounts", accountTuple(branch, id, "seed", balance), engine.Conventional()); err != nil {
		t.Fatalf("seed insert: %v", err)
	}
	if err := e.Commit(txn); err != nil {
		t.Fatalf("seed commit: %v", err)
	}
}

// balanceOf reads an account's committed balance.
func balanceOf(t *testing.T, e *engine.Engine, branch, id int64) float64 {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	rec, err := e.Probe(txn, "accounts", accountPK(branch, id), engine.Conventional())
	if err != nil {
		t.Fatalf("probe account (%d,%d): %v", branch, id, err)
	}
	return rec[3].Float
}

func credit(amount float64) func(storage.Tuple) (storage.Tuple, error) {
	return func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(tu[3].Float + amount)
		return tu, nil
	}
}

// TestRunConventionalPhaseAndAddOrder: actions run on the caller, phase by
// phase and in Add order within a phase, however the Adds interleave.
func TestRunConventionalPhaseAndAddOrder(t *testing.T) {
	e := newBankEngine(t)
	var ran []string
	step := func(name string) *Action {
		return &Action{Table: "accounts", Key: key(1), Mode: Shared, Work: func(s *Scope) error {
			if s.Executor() != nil {
				t.Errorf("%s: ran on an executor", name)
			}
			if want := (engine.AccessOptions{WorkerID: 7}); s.read != want || s.write != want {
				t.Errorf("%s: access options %+v / %+v, want conventional ones for worker 7", name, s.read, s.write)
			}
			ran = append(ran, name)
			return nil
		}}
	}
	tx := NewFlow()
	tx.Add(1, step("1a")).Add(0, step("0a")).Add(2, step("2a")).Add(0, step("0b")).Add(1, step("1b"))
	tx.Add(0, &Action{Table: "accounts", Mode: Shared, Work: func(*Scope) error { // secondary action
		ran = append(ran, "0c")
		return nil
	}})
	if err := RunConventional(e, tx, 7); err != nil {
		t.Fatalf("RunConventional: %v", err)
	}
	if want := []string{"0a", "0b", "0c", "1a", "1b", "2a"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	if err := RunConventional(e, tx, 7); err == nil {
		t.Fatal("a flow ran twice")
	}
}

// TestRunConventionalForwardRunsInline: a forwarded action runs before Forward
// returns, in the forwarding action's engine transaction, and its writes are
// visible to the rest of the flow.
func TestRunConventionalForwardRunsInline(t *testing.T) {
	e := newBankEngine(t)
	seedAccount(t, e, 3, 1, 100)
	var forwardedTxn *engine.Txn
	tx := NewFlow()
	tx.Add(0, &Action{Table: "accounts", Mode: Exclusive, Work: func(s *Scope) error {
		if err := s.Forward(&Action{Table: "accounts", Key: key(3), Mode: Exclusive, Work: func(s *Scope) error {
			forwardedTxn = s.Txn()
			return s.Update("accounts", accountPK(3, 1), credit(5))
		}}); err != nil {
			return err
		}
		if forwardedTxn != s.Txn() {
			t.Errorf("forwarded action ran in txn %p, want the forwarding action's %p", forwardedTxn, s.Txn())
		}
		rec, err := s.Probe("accounts", accountPK(3, 1))
		if err != nil {
			return err
		}
		if rec[3].Float != 105 {
			t.Errorf("after Forward returned the balance is %v, want 105", rec[3].Float)
		}
		return nil
	}})
	if err := RunConventional(e, tx, 0); err != nil {
		t.Fatalf("RunConventional: %v", err)
	}
	if got := balanceOf(t, e, 3, 1); got != 105 {
		t.Fatalf("committed balance %v, want 105", got)
	}
	// A forward that a DORA flow would reject is rejected here too.
	tx = NewFlow()
	tx.Add(0, &Action{Table: "accounts", Work: func(s *Scope) error {
		return s.Forward(&Action{Table: "accounts", Work: func(*Scope) error { return nil }})
	}})
	if err := RunConventional(e, tx, 0); err == nil {
		t.Fatal("forward without a routing key accepted")
	}
}

// TestRunConventionalSharedValuesCrossPhases: Put in one phase, Get in a
// later one.
func TestRunConventionalSharedValuesCrossPhases(t *testing.T) {
	e := newBankEngine(t)
	var got any
	tx := NewFlow()
	tx.Add(0, &Action{Table: "accounts", Key: key(1), Work: func(s *Scope) error {
		s.Put("o_id", int64(42))
		return nil
	}})
	tx.Add(1, &Action{Table: "accounts", Key: key(1), Work: func(s *Scope) error {
		v, ok := s.Get("o_id")
		if !ok {
			return errors.New("o_id not shared")
		}
		got = v
		return nil
	}})
	if err := RunConventional(e, tx, 0); err != nil {
		t.Fatalf("RunConventional: %v", err)
	}
	if got != int64(42) {
		t.Fatalf("phase 1 read %v, want 42", got)
	}
}

// TestRunConventionalErrorRollsBack: an error in phase 1 undoes phase 0's
// update and insert, skips the rest of the flow, and comes back unwrapped.
func TestRunConventionalErrorRollsBack(t *testing.T) {
	e := newBankEngine(t)
	seedAccount(t, e, 2, 1, 50)
	boom := errors.New("boom")
	later := false
	tx := NewFlow()
	tx.Add(0, &Action{Table: "accounts", Key: key(2), Mode: Exclusive, Work: func(s *Scope) error {
		return s.Update("accounts", accountPK(2, 1), credit(10))
	}})
	tx.Add(0, &Action{Table: "history", Key: key(2), Mode: Exclusive, Work: func(s *Scope) error {
		_, err := s.Insert("history", storage.Tuple{storage.IntValue(1), storage.IntValue(2), storage.FloatValue(10)})
		return err
	}})
	tx.Add(1, &Action{Table: "accounts", Key: key(2), Work: func(*Scope) error { return boom }})
	tx.Add(1, &Action{Table: "accounts", Key: key(2), Work: func(*Scope) error { later = true; return nil }})
	if err := RunConventional(e, tx, 0); err != boom {
		t.Fatalf("RunConventional returned %v, want the action's error itself", err)
	}
	if later {
		t.Fatal("an action after the failing one ran")
	}
	if got := balanceOf(t, e, 2, 1); got != 50 {
		t.Fatalf("balance %v after the rollback, want 50", got)
	}
	txn := e.Begin()
	defer e.Commit(txn)
	if _, err := e.Probe(txn, "history", storage.EncodeKey(storage.IntValue(1)), engine.Conventional()); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("history row survived the rollback: %v", err)
	}
}
