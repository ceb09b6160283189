package engine

import (
	"errors"
	"testing"
	"time"

	"dora/internal/storage"
	"dora/internal/wal"
)

// newFaultAccountsEngine builds the accounts engine over a fault-injecting
// log device so tests can kill the device mid-run.
func newFaultAccountsEngine(t *testing.T) (*Engine, *wal.FaultDevice) {
	t.Helper()
	fd := wal.NewFaultDevice(wal.NewMemDevice())
	e, err := NewWithDevice(Config{BufferPoolFrames: 256, LogSync: wal.SyncOnFlush}, fd)
	if err != nil {
		t.Fatalf("NewWithDevice: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	_, err = e.CreateTable(TableDef{
		Name: "accounts",
		Schema: storage.NewSchema(
			storage.Column{Name: "id", Kind: storage.KindInt},
			storage.Column{Name: "branch", Kind: storage.KindInt},
			storage.Column{Name: "owner", Kind: storage.KindString},
			storage.Column{Name: "balance", Kind: storage.KindFloat},
		),
		PrimaryKey:    []string{"id"},
		RoutingFields: []string{"branch"},
	})
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return e, fd
}

// A permanent log-device failure degrades the engine to read-only service:
// the failing commit reports a typed error and is not acknowledged, later
// writes are refused with ErrReadOnly, and both conventional and snapshot
// reads keep serving the committed state.
func TestPermanentLogFailureDegradesToReadOnly(t *testing.T) {
	e, fd := newFaultAccountsEngine(t)

	setup := e.Begin()
	for id := int64(1); id <= 3; id++ {
		mustInsert(t, e, setup, id, 1, "alice", 100)
	}
	if err := e.Commit(setup); err != nil {
		t.Fatalf("healthy Commit: %v", err)
	}
	if got := e.Health(); got != HealthHealthy {
		t.Fatalf("Health before failure = %v", got)
	}

	// The device dies; the in-flight write transaction's commit must fail
	// typed and must not be acknowledged.
	fd.FailPermanently(nil)
	writer := e.Begin()
	mustInsert(t, e, writer, 4, 1, "bob", 50)
	err := e.Commit(writer)
	if !errors.Is(err, wal.ErrDeviceFailed) {
		t.Fatalf("Commit on failed device = %v, want ErrDeviceFailed", err)
	}
	if got := e.Health(); got != HealthDegradedReadOnly {
		t.Fatalf("Health after failed commit = %v, want degraded-read-only", got)
	}
	// The unacknowledged transaction still rolls back in memory.
	if err := e.Abort(writer); err != nil {
		t.Fatalf("Abort of unacknowledged writer: %v", err)
	}

	// New state-changing operations are refused with the typed sentinel.
	blocked := e.Begin()
	_, ierr := e.Insert(blocked, "accounts", account(5, 1, "carol", 10), Conventional())
	if !errors.Is(ierr, ErrReadOnly) {
		t.Fatalf("Insert while degraded = %v, want ErrReadOnly", ierr)
	}
	e.Abort(blocked) //nolint:errcheck // nothing to undo

	// Conventional reads still work, and a read-only transaction commits
	// without touching the dead log.
	reader := e.Begin()
	got, perr := e.Probe(reader, "accounts", pkOf(2), Conventional())
	if perr != nil || got[3].Float != 100 {
		t.Fatalf("Probe while degraded = %v (err %v)", got, perr)
	}
	if cerr := e.Commit(reader); cerr != nil {
		t.Fatalf("read-only Commit while degraded = %v, want nil", cerr)
	}

	// Snapshot scans serve the committed prefix; the torn write is absent.
	snap := e.BeginSnapshot()
	defer snap.Release()
	rows := 0
	if serr := snap.ScanTable("accounts", func(storage.Tuple) bool { rows++; return true }); serr != nil {
		t.Fatalf("snapshot scan while degraded: %v", serr)
	}
	if rows != 3 {
		t.Fatalf("snapshot rows while degraded = %d, want the 3 committed", rows)
	}
}

// Transient device faults never surface to the engine: commits retry inside
// the flusher and the engine stays healthy.
func TestTransientLogFaultsKeepEngineHealthy(t *testing.T) {
	e, fd := newFaultAccountsEngine(t)
	fd.FailEveryNthAppend(3)
	fd.FailEveryNthSync(4)

	for id := int64(1); id <= 8; id++ {
		txn := e.Begin()
		mustInsert(t, e, txn, id, 1, "alice", 100)
		if err := e.Commit(txn); err != nil {
			t.Fatalf("Commit(%d) under transient faults: %v", id, err)
		}
	}
	if got := e.Health(); got != HealthHealthy {
		t.Fatalf("Health = %v, want healthy", got)
	}
	if st := fd.Stats(); st.AppendFaults == 0 && st.SyncFaults == 0 {
		t.Fatalf("fault stats = %+v, want injected faults to have fired", st)
	}
	if e.Log().FlushStats().Retries == 0 {
		t.Fatal("expected flusher retries under transient faults")
	}
}

// Begin on a degraded engine hands out an active-but-unlogged transaction so
// readers are not turned away; Begin on a failed engine hands out a
// born-aborted one.
func TestBeginAcrossHealthStates(t *testing.T) {
	e, fd := newFaultAccountsEngine(t)
	fd.FailPermanently(nil)
	// Latch the failure via a commit attempt.
	w := e.Begin()
	mustInsert(t, e, w, 1, 1, "x", 1)
	if err := e.Commit(w); err == nil {
		t.Fatal("Commit on failed device succeeded")
	}
	e.Abort(w) //nolint:errcheck // best-effort rollback

	degraded := e.Begin()
	if !degraded.Active() {
		t.Fatal("Begin while degraded should stay active for reads")
	}
	e.Abort(degraded) //nolint:errcheck // nothing to undo

	e.markFailed()
	if got := e.Health(); got != HealthFailed {
		t.Fatalf("Health after markFailed = %v", got)
	}
	dead := e.Begin()
	if dead.Active() {
		t.Fatal("Begin on a failed engine should be born aborted")
	}
	if _, err := e.Probe(dead, "accounts", pkOf(1), Conventional()); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Probe on born-aborted txn = %v, want ErrTxnDone", err)
	}
}

// The health latch only fires once: a flood of concurrent failures leaves the
// engine degraded (not failed) and keeps commit errors typed.
func TestConcurrentCommitsOnFailedDeviceStayTyped(t *testing.T) {
	e, fd := newFaultAccountsEngine(t)
	fd.FailPermanently(nil)

	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(id int64) {
			txn := e.Begin()
			_, ierr := e.Insert(txn, "accounts", account(id, 1, "w", 1), Conventional())
			if ierr != nil {
				e.Abort(txn) //nolint:errcheck
				errs <- ierr
				return
			}
			cerr := e.Commit(txn)
			e.Abort(txn) //nolint:errcheck
			errs <- cerr
		}(int64(i + 1))
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 8; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a write committed on a permanently failed device")
			}
			if !errors.Is(err, wal.ErrDeviceFailed) && !errors.Is(err, ErrReadOnly) {
				t.Fatalf("concurrent failure = %v, want ErrDeviceFailed or ErrReadOnly", err)
			}
		case <-deadline:
			t.Fatal("concurrent commits hung on the failed device")
		}
	}
	if got := e.Health(); got != HealthDegradedReadOnly {
		t.Fatalf("Health = %v, want degraded-read-only", got)
	}
}

// Begin on a closed log hands out a born-aborted transaction: with BEGIN
// logged lazily, Begin itself appends nothing, so it checks the log's closed
// flag instead of failing an append.
func TestBeginOnClosedLogIsBornAborted(t *testing.T) {
	e, _ := newAccountsEngine(t)
	defer e.Close()
	if err := e.Log().Close(); err != nil {
		t.Fatalf("closing the log: %v", err)
	}
	appends := e.Log().Appends()
	txn := e.Begin()
	if txn.Active() || txn.State() != TxnAborted {
		t.Fatalf("Begin on a closed log: state %v, want aborted", txn.State())
	}
	if _, err := e.Probe(txn, "accounts", pkOf(1), Conventional()); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Probe on born-aborted txn = %v, want ErrTxnDone", err)
	}
	if _, err := e.Insert(txn, "accounts", account(1, 1, "x", 1), Conventional()); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Insert on born-aborted txn = %v, want ErrTxnDone", err)
	}
	if err := e.Commit(txn); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Commit of born-aborted txn = %v, want ErrTxnDone", err)
	}
	if got := e.Log().Appends(); got != appends {
		t.Fatalf("born-aborted txn appended %d records, want 0", got-appends)
	}
}
