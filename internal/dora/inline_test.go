package dora

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitIdle polls until the executor's goroutine has let go of its dataset
// and both queues are empty: the state in which a Run caller may execute on
// it. The goroutine clears busy inside drain and sleeps there without
// dropping the latch in between, so an idle executor's goroutine is asleep.
func waitIdle(t *testing.T, ex *Executor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ex.mu.Lock()
		idle := !ex.busy && len(ex.incoming) == 0 && len(ex.completed) == 0
		ex.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("executor never became idle")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitQueued polls until the executor's incoming queue holds n messages.
func waitQueued(t *testing.T, ex *Executor, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ex.QueueDepth() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", ex.QueueDepth(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// recorder collects the order in which action bodies run.
type recorder struct {
	mu    sync.Mutex
	order []string
}

func (r *recorder) add(name string) {
	r.mu.Lock()
	r.order = append(r.order, name)
	r.mu.Unlock()
}

func (r *recorder) check(t *testing.T, want ...string) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !slices.Equal(r.order, want) {
		t.Fatalf("execution order %v, want %v", r.order, want)
	}
}

// A single-action Run on an idle system executes on the caller: exactly one
// inline action, no queue drain, no message. RunAsync never runs inline.
func TestInlineRunOnIdleExecutor(t *testing.T) {
	sys, e := newBankSystem(t, 2)
	loadAccounts(t, e, 2, 1, 100)
	ex, _ := sys.executorFor("accounts", key(0))
	probe := func() *Transaction {
		return sys.NewTransaction().Add(0, &Action{Table: "accounts", Key: key(0), Mode: Shared,
			Work: func(s *Scope) error {
				if s.Executor() != ex {
					return fmt.Errorf("action ran on %v, want the routed executor", s.Executor())
				}
				_, err := s.Probe("accounts", accountPK(0, 0))
				return err
			}})
	}

	for _, x := range sys.Executors("accounts") {
		waitIdle(t, x)
	}
	before := sys.Stats()
	if err := probe().Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	after := sys.Stats()
	if got := after.ActionsInline - before.ActionsInline; got != 1 {
		t.Fatalf("ActionsInline grew by %d, want 1", got)
	}
	if after.BatchesDrained != before.BatchesDrained || after.MessagesProcessed != before.MessagesProcessed {
		t.Fatalf("an inline Run drained queues: batches %d -> %d, messages %d -> %d",
			before.BatchesDrained, after.BatchesDrained, before.MessagesProcessed, after.MessagesProcessed)
	}
	if st := ex.Stats(); st.LocalLocksHeld != 0 || st.ActionsInline != 1 {
		t.Fatalf("executor stats %+v, want its lock released and one inline action", st)
	}

	waitIdle(t, ex)
	if err := <-probe().RunAsync(); err != nil {
		t.Fatalf("RunAsync: %v", err)
	}
	if got := sys.Stats().ActionsInline; got != after.ActionsInline {
		t.Fatalf("RunAsync ran inline: ActionsInline %d -> %d", after.ActionsInline, got)
	}
}

// A Run caller never overtakes queued work: neither an action the executor
// goroutine is executing nor a message still waiting in an idle executor's
// queue. In both cases the caller's action is enqueued behind it.
func TestInlineRunNeverOvertakesQueuedWork(t *testing.T) {
	sys, _ := newBankSystem(t, 1)
	ex := sys.Executors("accounts")[0]
	var rec recorder
	runB := func() <-chan error {
		done := make(chan error, 1)
		go func() {
			done <- sys.NewTransaction().Add(0, &Action{Table: "accounts", Key: key(2), Mode: Shared,
				Work: func(*Scope) error { rec.add("B"); return nil }}).Run()
		}()
		return done
	}

	// The executor goroutine is inside A's action.
	entered, gate := make(chan struct{}), make(chan struct{})
	aDone := sys.NewTransaction().Add(0, &Action{Table: "accounts", Key: key(1), Mode: Shared,
		Work: func(*Scope) error {
			close(entered)
			<-gate
			rec.add("A")
			return nil
		}}).RunAsync()
	<-entered
	bDone := runB()
	waitQueued(t, ex, 1)
	close(gate)
	if err := <-aDone; err != nil {
		t.Fatalf("A: %v", err)
	}
	if err := <-bDone; err != nil {
		t.Fatalf("B: %v", err)
	}
	rec.check(t, "A", "B")

	// The executor is idle, its goroutine asleep, but a message waits in
	// its queue (appended without a wake-up).
	waitIdle(t, ex)
	ex.mu.Lock()
	m := newMessage(msgSystem)
	m.sys = func() { rec.add("Q") }
	ex.incoming = append(ex.incoming, m)
	ex.mu.Unlock()
	if err := <-runB(); err != nil {
		t.Fatalf("B behind Q: %v", err)
	}
	rec.check(t, "A", "B", "Q", "B")
	if n := ex.Stats().ActionsInline; n != 0 {
		t.Fatalf("ActionsInline = %d, want 0: every B was queued", n)
	}
}

// An inline action that conflicts on a local lock parks like a queued one:
// the caller lets go of the dataset, the holder's completion wakes the
// action on the executor, and the transaction commits. The flow left inline
// mode when it parked, so the executor that runs it submits its second phase
// instead of leaving it to the caller.
func TestInlineRunParksAndCommits(t *testing.T) {
	sys, e := newBankSystem(t, 1)
	loadAccounts(t, e, 2, 1, 100)
	ex := sys.Executors("accounts")[0]
	gate := make(chan struct{})
	holderDone := holdLock(t, sys, 1, Exclusive, gate)
	waitIdle(t, ex)

	done := make(chan error, 1)
	phase1 := make(chan *Executor, 1)
	go func() {
		done <- sys.NewTransaction().Add(0, &Action{Table: "accounts", Key: key(1), Mode: Exclusive,
			Work: func(s *Scope) error {
				return s.Update("accounts", accountPK(1, 0), credit(5))
			}}).Add(1, &Action{Table: "history", Key: key(1), Mode: Shared,
			Work: func(s *Scope) error {
				phase1 <- s.Executor()
				return nil
			}}).Run()
	}()
	waitForBlocked(t, ex, 1)
	if n := ex.Stats().ActionsInline; n != 1 {
		t.Fatalf("ActionsInline = %d, want 1: the caller ran the action before it parked", n)
	}
	select {
	case err := <-done:
		t.Fatalf("Run returned %v while its lock is held by another transaction", err)
	default:
	}

	close(gate)
	if err := <-holderDone; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked inline Run: %v", err)
	}
	if got := <-phase1; got != sys.Executors("history")[0] {
		t.Fatalf("phase 1 ran on %v, want the history executor", got)
	}
	if st := ex.Stats(); st.ActionsWoken != 1 {
		t.Fatalf("ActionsWoken = %d, want 1", st.ActionsWoken)
	}
	if got := balanceOf(t, e, 1, 0); got != 105 {
		t.Fatalf("balance = %v, want 105", got)
	}
}

// Stop returns while a Run caller owns a dataset, and the executor goroutine
// takes its stop message once the caller lets go.
func TestInlineRunStopWhileOwned(t *testing.T) {
	sys, _ := newBankSystem(t, 1)
	ex := sys.Executors("accounts")[0]
	waitIdle(t, ex)

	entered, gate := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- sys.NewTransaction().Add(0, &Action{Table: "accounts", Key: key(1), Mode: Shared,
			Work: func(*Scope) error {
				close(entered)
				<-gate
				return nil
			}}).Run()
	}()
	<-entered
	if n := ex.Stats().ActionsInline; n != 1 {
		t.Fatalf("ActionsInline = %d, want 1", n)
	}
	sys.Stop()
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The stop message was queued behind the owner; once it has been drained,
	// the goroutine returned (a stop ends the batch it arrives in).
	waitQueued(t, ex, 0)
}

// An executor is born owned by its goroutine, so no caller can take the
// dataset before that goroutine runs (and its first drain cannot clear a
// caller's ownership); the first drain serves what was queued meanwhile and
// lets the dataset go. Messages queued while a caller owns the dataset are
// served once it lets go.
func TestInlineRunExecutorStartKeepsOwnership(t *testing.T) {
	sys, _ := newBankSystem(t, 1)
	ex := newExecutor(sys, "accounts", 0, -1)
	ex.part = sys.pm.lookup("accounts")
	defer ex.stop()

	ex.mu.Lock()
	born := ex.busy
	ex.mu.Unlock()
	if !born {
		t.Fatal("a new executor's dataset is free before its goroutine runs")
	}
	ran := make(chan struct{})
	ex.enqueueSystem(func() { close(ran) })
	go ex.run()
	<-ran
	waitIdle(t, ex)

	// A caller owns the dataset, as runInline takes it.
	ex.mu.Lock()
	ex.busy = true
	ex.mu.Unlock()
	ran = make(chan struct{})
	ex.enqueueSystem(func() { close(ran) })
	ex.disown()
	<-ran
}

// Run callers racing each other, the executor goroutine (RunAsync) and a
// parked holder for one exclusive key: every credit lands exactly once.
func TestInlineRunConcurrentCallersSerialize(t *testing.T) {
	sys, e := newBankSystem(t, 2)
	loadAccounts(t, e, 2, 1, 0)
	const workers, perWorker = 4, 100
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := sys.NewTransaction().Add(0, &Action{Table: "accounts", Key: key(1), Mode: Exclusive,
					Work: func(s *Scope) error {
						return s.Update("accounts", accountPK(1, 0), credit(1))
					}})
				if (w+i)%3 == 0 {
					errs <- <-tx.RunAsync()
				} else {
					errs <- tx.Run()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("credit: %v", err)
		}
	}
	if got := balanceOf(t, e, 1, 0); got != workers*perWorker {
		t.Fatalf("balance = %v, want %d", got, workers*perWorker)
	}
}

// A Run caller that owns an executor with an armed region gate (the growing
// side of an A.2.1 boundary move) does not execute inline: it enqueues, and
// the executor defers the action until the gate lifts.
func TestInlineRunDefersToRegionGate(t *testing.T) {
	sys, _ := newBankSystem(t, 1)
	ex := sys.Executors("accounts")[0]
	drained, armed := make(chan struct{}), make(chan struct{})
	ex.enqueueSystem(func() {
		ex.gateRegion(key(0), key(50), sys.Executors("history")[0], drained)
		close(armed)
	})
	<-armed
	waitIdle(t, ex)
	before := ex.Stats()

	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- sys.NewTransaction().Add(0, &Action{Table: "accounts", Key: key(7), Mode: Shared,
			Work: func(*Scope) error { ran.Store(true); return nil }}).Run()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ex.Stats().MessagesProcessed == before.MessagesProcessed {
		if time.Now().After(deadline) {
			t.Fatal("the gated action never reached the executor's queue")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if ran.Load() {
		t.Fatal("the action ran while its region was gated")
	}
	close(drained)
	ex.enqueueSystem(ex.liftGates)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran.Load() || ex.Stats().ActionsInline != before.ActionsInline {
		t.Fatalf("ran=%v, ActionsInline %d -> %d; want run once the gate lifts, not inline",
			ran.Load(), before.ActionsInline, ex.Stats().ActionsInline)
	}
}

// The A.2.1 drain sleeps while its executor goroutine owns the dataset, so
// the completion it waits for must wake it although enqueuers otherwise skip
// the wake-up of an owned dataset.
func TestInlineRunDrainOwnerWakes(t *testing.T) {
	sys, _ := newBankSystem(t, 2)
	gate := make(chan struct{})
	holderDone := holdLock(t, sys, 60, Exclusive, gate)
	shrink := sys.Executors("accounts")[1]
	moved := make(chan error, 1)
	go func() { moved <- sys.PartitionManager().MoveBoundary("accounts", 0, key(70)) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		shrink.mu.Lock()
		asleep := shrink.drainWait
		shrink.mu.Unlock()
		if asleep {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the drain never waited for the holder's lock")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	if err := <-holderDone; err != nil {
		t.Fatalf("holder: %v", err)
	}
	select {
	case err := <-moved:
		if err != nil {
			t.Fatalf("MoveBoundary: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the drain slept through the completion it waited for")
	}
}
