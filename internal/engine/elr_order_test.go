package engine

import (
	"sync/atomic"
	"testing"

	"dora/internal/storage"
	"dora/internal/wal"
)

// gatedDevice is a wal.Device whose next Append, once armed, blocks until the
// test opens the gate. Holding one device write in flight makes every record
// appended meanwhile land in the next write.
type gatedDevice struct {
	wal.Device
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
}

func (d *gatedDevice) Append(chunk []byte, firstLSN wal.LSN) error {
	if d.armed.CompareAndSwap(true, false) {
		close(d.entered)
		<-d.gate
	}
	return d.Device.Append(chunk, firstLSN)
}

// Early lock release must not reorder commit epochs. A updates two rows
// without centralized locks (as DORA executors do) and commits; its release
// hook starts B, which overwrites A's first row and commits. One device write
// then makes both durable. B's completion must still run after A's, so B's
// commit epoch is above A's, and a snapshot pinned at B's epoch sees all of A,
// including A's second row.
func TestDependentCommitEpochFollowsUpstream(t *testing.T) {
	const rounds = 200
	misordered := 0
	for i := 0; i < rounds; i++ {
		if !dependentEpochRound(t) {
			misordered++
		}
	}
	if misordered > 0 {
		t.Fatalf("%d of %d rounds misordered the dependent's commit epoch", misordered, rounds)
	}
}

// dependentEpochRound runs one A-then-B schedule and reports whether the
// commit epochs and B's snapshot came out in upstream-first order.
func dependentEpochRound(t *testing.T) bool {
	t.Helper()
	dev := &gatedDevice{Device: wal.NewMemDevice(), entered: make(chan struct{}), gate: make(chan struct{})}
	e, err := NewWithDevice(Config{BufferPoolFrames: 256}, dev)
	if err != nil {
		t.Fatalf("NewWithDevice: %v", err)
	}
	defer e.Close()
	if _, err := e.CreateTable(accountsDef()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	setup := e.Begin()
	mustInsert(t, e, setup, 1, 1, "alice", 100)
	mustInsert(t, e, setup, 2, 1, "bob", 100)
	if err := e.Commit(setup); err != nil {
		t.Fatalf("setup Commit: %v", err)
	}

	setBalance := func(txn *Txn, id int64, bal float64) error {
		return e.Update(txn, "accounts", pkOf(id), AccessOptions{NoLock: true}, func(tu storage.Tuple) (storage.Tuple, error) {
			tu[3] = storage.FloatValue(bal)
			return tu, nil
		})
	}
	dev.armed.Store(true)
	a := e.Begin()
	if err := setBalance(a, 1, 1); err != nil {
		t.Fatalf("A update 1: %v", err)
	}
	if err := setBalance(a, 2, 2); err != nil {
		t.Fatalf("A update 2: %v", err)
	}
	// Park the flusher inside the write of A's BEGIN and updates, so A's
	// commit record and all of B land in the next write together.
	plugged := make(chan struct{})
	go func() {
		e.Log().FlushAll()
		close(plugged)
	}()
	<-dev.entered

	aDone, bDone := make(chan error, 1), make(chan error, 1)
	var b *Txn
	var bSnap *Snapshot
	e.CommitAsync(a, func() {
		b = e.Begin()
		if err := setBalance(b, 1, 10); err != nil {
			bDone <- err
			return
		}
		e.CommitAsync(b, nil, func(err error) {
			if err == nil {
				bSnap = e.BeginSnapshot()
			}
			bDone <- err
		})
	}, func(err error) { aDone <- err })
	close(dev.gate)
	<-plugged
	if err := <-aDone; err != nil {
		t.Fatalf("A commit: %v", err)
	}
	if err := <-bDone; err != nil {
		t.Fatalf("B commit: %v", err)
	}
	defer bSnap.Release()

	recs, err := e.Log().Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	var aEpoch, bEpoch uint64
	for _, r := range recs {
		if r.Type == wal.RecEnd && r.Txn == a.walID() {
			aEpoch = r.Epoch
		}
		if r.Type == wal.RecEnd && r.Txn == b.walID() {
			bEpoch = r.Epoch
		}
	}
	if aEpoch == 0 || bEpoch == 0 {
		t.Fatalf("missing END epochs: A=%d B=%d", aEpoch, bEpoch)
	}
	if aEpoch >= bEpoch {
		t.Logf("A's commit epoch %d is not below B's %d", aEpoch, bEpoch)
		return false
	}
	row1, err1 := bSnap.Probe("accounts", pkOf(1))
	row2, err2 := bSnap.Probe("accounts", pkOf(2))
	if err1 != nil || err2 != nil {
		t.Fatalf("snapshot probes: %v, %v", err1, err2)
	}
	if row1[3].Float != 10 || row2[3].Float != 2 {
		t.Logf("snapshot at B's epoch %d (pinned %d) sees row1=%v row2=%v, want 10 and 2",
			bEpoch, bSnap.Epoch(), row1[3].Float, row2[3].Float)
		return false
	}
	return true
}
