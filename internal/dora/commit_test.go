package dora

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/wal"
)

// A transaction that changes nothing writes no log record: no BEGIN, COMMIT,
// ABORT or END, under DORA and under RunConventional, whether it commits or
// aborts before its first write. A writer's records form one chain: BEGIN
// (PrevLSN 0), its change, COMMIT, END, each linked to the one before.
func TestUnloggedTransactionsAppendNothing(t *testing.T) {
	sys, e := newBankSystem(t, 2)
	loadAccounts(t, e, 2, 2, 100)
	log := e.Log()

	errInput := errors.New("input abort")
	read := func(s *Scope) error {
		_, err := s.Probe("accounts", accountPK(1, 0))
		return err
	}
	readThenAbort := func(s *Scope) error {
		if err := read(s); err != nil {
			return err
		}
		return errInput
	}
	reader := func(work func(*Scope) error) *Action {
		return &Action{Table: "accounts", Key: key(1), Mode: Shared, Work: work}
	}
	cases := []struct {
		name    string
		run     func() error
		wantErr error
	}{
		{"dora read-only", func() error {
			return sys.NewTransaction().Add(0, reader(read)).Run()
		}, nil},
		{"conventional read-only", func() error {
			return RunConventional(e, NewFlow().Add(0, reader(read)), 0)
		}, nil},
		{"dora abort before first write", func() error {
			return sys.NewTransaction().Add(0, reader(readThenAbort)).Run()
		}, errInput},
		{"conventional abort before first write", func() error {
			return RunConventional(e, NewFlow().Add(0, reader(readThenAbort)), 0)
		}, errInput},
	}
	for _, c := range cases {
		before := log.Appends()
		if err := c.run(); !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: Run = %v, want %v", c.name, err, c.wantErr)
		}
		if got := log.Appends() - before; got != 0 {
			t.Fatalf("%s appended %d log records, want 0", c.name, got)
		}
	}

	start, before := log.CurrentLSN(), log.Appends()
	writer := sys.NewTransaction().Add(0, &Action{
		Table: "accounts", Key: key(1), Mode: Exclusive,
		Work: func(s *Scope) error {
			return s.Update("accounts", accountPK(1, 0), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(tu[3].Float + 1)
				return tu, nil
			})
		},
	})
	if err := writer.Run(); err != nil {
		t.Fatalf("writer Run: %v", err)
	}
	if got := log.Appends() - before; got != 4 {
		t.Fatalf("writer appended %d records, want 4 (BEGIN, UPDATE, COMMIT, END)", got)
	}
	recs, err := log.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	var chain []*wal.Record
	for _, r := range recs {
		if r.LSN >= start {
			chain = append(chain, r)
		}
	}
	want := []wal.RecordType{wal.RecBegin, wal.RecUpdate, wal.RecCommit, wal.RecEnd}
	if len(chain) != len(want) {
		t.Fatalf("writer logged %d records, want %d", len(chain), len(want))
	}
	prev := wal.NilLSN
	for i, r := range chain {
		if r.Type != want[i] || r.Txn != chain[0].Txn || r.PrevLSN != prev {
			t.Fatalf("record %d = %v txn %d PrevLSN %d, want %v txn %d PrevLSN %d",
				i, r.Type, r.Txn, r.PrevLSN, want[i], chain[0].Txn, prev)
		}
		prev = r.LSN
	}
}

// gatedFaultDevice holds its next Append, once armed, until the test opens
// the gate. The wrapped FaultDevice lets the test fail the held write
// instead of letting it through.
type gatedFaultDevice struct {
	*wal.FaultDevice
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
}

func (d *gatedFaultDevice) Append(chunk []byte, firstLSN wal.LSN) error {
	if d.armed.CompareAndSwap(true, false) {
		close(d.entered)
		<-d.gate
	}
	return d.FaultDevice.Append(chunk, firstLSN)
}

// A read-only transaction is acknowledged without a log record, but not
// before the log is durable up to every commit whose data it could have
// read. Writer W commits under DORA while its flush is held on the device;
// early lock release frees its local lock, and read-only R reads W's row.
// R must not return before W's flush is let through; if the device fails
// instead, R must get an error, like W.
func TestReadOnlyAckWaitsForUpstreamFlush(t *testing.T) {
	for _, fail := range []bool{false, true} {
		name := "flush-lands"
		if fail {
			name = "device-fails"
		}
		t.Run(name, func(t *testing.T) { readOnlyAfterELR(t, fail) })
	}
}

func readOnlyAfterELR(t *testing.T, fail bool) {
	dev := &gatedFaultDevice{
		FaultDevice: wal.NewFaultDevice(wal.NewMemDevice()),
		entered:     make(chan struct{}),
		gate:        make(chan struct{}),
	}
	e, err := engine.NewWithDevice(engine.Config{BufferPoolFrames: 512}, dev)
	if err != nil {
		t.Fatalf("NewWithDevice: %v", err)
	}
	createBankTables(t, e)
	loadAccounts(t, e, 1, 1, 100)
	// One executor, so the actions below run on one goroutine in order.
	sys := NewSystem(e, Config{TxnTimeout: 5 * time.Second})
	if err := sys.BindTableInts("accounts", 0, 99, 1); err != nil {
		t.Fatalf("BindTableInts: %v", err)
	}
	t.Cleanup(sys.Stop)
	// Cleanups run last-in first-out: a failing test lets the held write go
	// before the system and the engine shut down.
	var openGate sync.Once
	letGo := func() { openGate.Do(func() { close(dev.gate) }) }
	t.Cleanup(letGo)

	dev.armed.Store(true)
	w := sys.NewTransaction().Add(0, &Action{
		Table: "accounts", Key: key(0), Mode: Exclusive,
		Work: func(s *Scope) error {
			return s.Update("accounts", accountPK(0, 0), func(tu storage.Tuple) (storage.Tuple, error) {
				tu[3] = storage.FloatValue(7)
				return tu, nil
			})
		},
	})
	wDone := w.RunAsync()
	// W's commit asked for a flush; the device now holds that write.
	<-dev.entered

	var seen atomic.Value
	r := sys.NewTransaction().Add(0, &Action{
		Table: "accounts", Key: key(0), Mode: Shared,
		Work: func(s *Scope) error {
			tu, err := s.Probe("accounts", accountPK(0, 0))
			if err == nil {
				seen.Store(tu[3].Float)
			}
			return err
		},
	})
	rDone := r.RunAsync()
	// A second reader on the same key and executor runs after R's action
	// and R's commit (the executor that runs a transaction's last action
	// commits it), so once its body runs, R's commit has been decided.
	probed := make(chan struct{})
	x := sys.NewTransaction().Add(0, &Action{
		Table: "accounts", Key: key(0), Mode: Shared,
		Work: func(s *Scope) error {
			close(probed)
			return nil
		},
	})
	xDone := x.RunAsync()
	<-probed
	select {
	case err := <-rDone:
		t.Fatalf("read-only R returned (%v) while W's commit was not durable", err)
	default:
	}
	if got, _ := seen.Load().(float64); got != 7 {
		t.Fatalf("R read balance %v, want W's 7", got)
	}

	if fail {
		dev.FailPermanently(nil)
	}
	letGo()
	wErr, rErr, xErr := <-wDone, <-rDone, <-xDone
	if !fail {
		if wErr != nil || rErr != nil || xErr != nil {
			t.Fatalf("after the flush: W %v, R %v, X %v; want all nil", wErr, rErr, xErr)
		}
		return
	}
	if !errors.Is(wErr, wal.ErrDeviceFailed) {
		t.Fatalf("W on a failed device = %v, want ErrDeviceFailed", wErr)
	}
	if !errors.Is(rErr, wal.ErrDeviceFailed) {
		t.Fatalf("R after W's failed flush = %v, want ErrDeviceFailed", rErr)
	}
}
