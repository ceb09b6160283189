package engine

import (
	"errors"
	"testing"

	"dora/internal/storage"
	"dora/internal/wal"
)

// The early-lock-release crash scenario: transaction A's commit record is
// appended (locks released, effects visible to dependents) but the device
// dies before the record flushes. A dependent B reads A's write and commits
// behind it. Required outcome: neither A nor B is acknowledged (B's commit
// LSN is above A's, and the durable watermark stopped below both), and
// recovery from the durable prefix rolls A back entirely.
func TestELRCrashRecoveryAbortsUnflushedCommitter(t *testing.T) {
	e, fd := newFaultAccountsEngine(t)

	setup := e.Begin()
	mustInsert(t, e, setup, 1, 1, "alice", 100)
	if err := e.Commit(setup); err != nil {
		t.Fatalf("setup Commit: %v", err)
	}

	// A writes a row (NoLock, as DORA executors do — its logical locks are
	// the local ones ELR releases) and its change records reach the device;
	// then the device dies, so A's commit record can never flush.
	a := e.Begin()
	if _, err := e.Insert(a, "accounts", account(2, 1, "bob", 50), AccessOptions{NoLock: true}); err != nil {
		t.Fatalf("A Insert: %v", err)
	}
	e.Log().FlushAll()
	fd.FailPermanently(nil)

	aDone := make(chan error, 1)
	bDone := make(chan error, 1)
	dependentSawWrite := false
	e.CommitAsync(a, func() {
		// The ELR window: A's commit record has an LSN but is not durable.
		// A dependent starts here, reads A's write, and commits on top.
		b := e.Begin()
		row, perr := e.Probe(b, "accounts", pkOf(2), DORARead())
		if perr == nil && len(row) == 4 {
			dependentSawWrite = true
		}
		if _, ierr := e.Insert(b, "accounts", account(3, 1, "carol", 25), AccessOptions{NoLock: true}); ierr != nil {
			bDone <- ierr
			return
		}
		e.CommitAsync(b, nil, func(err error) { bDone <- err })
	}, func(err error) { aDone <- err })

	aErr := <-aDone
	bErr := <-bDone
	if !dependentSawWrite {
		t.Fatal("dependent did not observe the early-released write")
	}
	if aErr == nil {
		t.Fatal("unflushed committer was acknowledged")
	}
	if !errors.Is(aErr, wal.ErrDeviceFailed) {
		t.Fatalf("A's commit error = %v, want ErrDeviceFailed", aErr)
	}
	if bErr == nil {
		t.Fatal("dependent acknowledged although its upstream never became durable")
	}

	// The crash: restart from the durable prefix. A real restart re-reads the
	// device files; here the durable records are replayed through a fresh
	// healthy manager, which reproduces the identical byte stream (LSNs are
	// logical offsets and encoding is deterministic).
	durable, err := e.Log().DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords: %v", err)
	}
	restart, err := wal.Open(wal.Options{})
	if err != nil {
		t.Fatalf("Open restart log: %v", err)
	}
	defer restart.Close()
	for _, r := range durable {
		if _, err := restart.Append(r); err != nil {
			t.Fatalf("re-appending durable record: %v", err)
		}
	}

	fresh, err := NewWithDevice(Config{BufferPoolFrames: 256}, wal.NewMemDevice())
	if err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	defer fresh.Close()
	if _, err := fresh.CreateTable(TableDef{
		Name: "accounts",
		Schema: storage.NewSchema(
			storage.Column{Name: "id", Kind: storage.KindInt},
			storage.Column{Name: "branch", Kind: storage.KindInt},
			storage.Column{Name: "owner", Kind: storage.KindString},
			storage.Column{Name: "balance", Kind: storage.KindFloat},
		),
		PrimaryKey:    []string{"id"},
		RoutingFields: []string{"branch"},
	}); err != nil {
		t.Fatalf("CreateTable on fresh engine: %v", err)
	}
	restart.FlushAll()
	stats, err := fresh.Recover(restart)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Losers < 1 {
		t.Fatalf("recovery stats = %+v: the unflushed committer must be a loser", stats)
	}

	check := fresh.Begin()
	if got, perr := fresh.Probe(check, "accounts", pkOf(1), Conventional()); perr != nil || got[3].Float != 100 {
		t.Fatalf("committed setup row = %v, %v", got, perr)
	}
	if _, perr := fresh.Probe(check, "accounts", pkOf(2), Conventional()); !errors.Is(perr, ErrNotFound) {
		t.Fatalf("unflushed committer's write survived recovery (err=%v)", perr)
	}
	if _, perr := fresh.Probe(check, "accounts", pkOf(3), Conventional()); !errors.Is(perr, ErrNotFound) {
		t.Fatalf("unacknowledged dependent's write survived recovery (err=%v)", perr)
	}
}
