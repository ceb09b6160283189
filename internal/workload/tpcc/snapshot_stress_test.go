package tpcc

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

// ytdAggregate sums W_YTD per warehouse and D_YTD per warehouse over one
// epoch-pinned snapshot.
func ytdAggregate(snap *engine.Snapshot) (wYTD, dYTDSum map[int64]float64, err error) {
	wYTD = make(map[int64]float64)
	if err = snap.ScanTable("WAREHOUSE", func(tu storage.Tuple) bool {
		wYTD[tu[0].Int] = tu[3].Float
		return true
	}); err != nil {
		return nil, nil, err
	}
	dYTDSum = make(map[int64]float64)
	if err = snap.ScanTable("DISTRICT", func(tu storage.Tuple) bool {
		dYTDSum[tu[0].Int] += tu[4].Float
		return true
	}); err != nil {
		return nil, nil, err
	}
	return wYTD, dYTDSum, nil
}

// TestSnapshotAggregationStress runs concurrent Payment/NewOrder writers
// through DORA against repeated snapshot aggregations and requires the §3.3.2
// Payment-conservation invariant W_YTD = Σ D_YTD to hold WITHIN every
// snapshot, at its pinned epoch — even though Payment updates the warehouse
// and district rows in separate actions on different executors. A
// non-versioned read would routinely catch the mid-transaction state; an
// epoch-pinned one must never.
func TestSnapshotAggregationStress(t *testing.T) {
	d, _, sys := newLoaded(t, true)

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				kind := Payment
				if rng.Intn(2) == 0 {
					kind = NewOrder
				}
				err := d.RunDORA(sys, kind, rng, int(seed))
				if err == nil {
					commits.Add(1)
				} else if !errors.Is(err, workload.ErrAborted) {
					t.Errorf("writer %d: %v", seed, err)
					return
				}
			}
		}(int64(w + 1))
	}

	// Scan until both floors are met so the aggregations genuinely overlap
	// committing writers rather than racing ahead of them.
	deadline := time.Now().Add(30 * time.Second)
	scans := 0
	for (scans < 150 || commits.Load() < 200) && !t.Failed() && time.Now().Before(deadline) {
		err := sys.WithSnapshot(func(snap *engine.Snapshot) error {
			wYTD, dYTDSum, err := ytdAggregate(snap)
			if err != nil {
				return err
			}
			for w, ytd := range wYTD {
				if !workload.FloatClose(ytd, dYTDSum[w]) {
					t.Errorf("snapshot at epoch %d: warehouse %d W_YTD=%.2f but Σ D_YTD=%.2f",
						snap.Epoch(), w, ytd, dYTDSum[w])
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("WithSnapshot: %v", err)
			break
		}
		scans++
	}
	close(stop)
	wg.Wait()
	if commits.Load() == 0 {
		t.Fatal("no writer transaction committed during the stress run")
	}
	t.Logf("scans=%d writer-commits=%d", scans, commits.Load())

	// The quiescent database still passes every §3.3.2 invariant.
	if err := d.Check(sys.Engine()); err != nil {
		t.Fatalf("post-stress Check: %v", err)
	}
}

// TestStockLevelSnapshotMatchesConventional checks the snapshot StockLevel
// path returns the same counts as the conventional locked path on a quiescent
// database, and that the DORA dispatch runs it.
func TestStockLevelSnapshotMatchesConventional(t *testing.T) {
	d, e, sys := newLoaded(t, true)

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		in := d.genStockLevel(rng)

		txn := e.Begin()
		want, err := d.stockLevelConventional(e, txn, in, engine.Conventional())
		if err != nil {
			t.Fatalf("conventional StockLevel: %v", err)
		}
		if err := e.Commit(txn); err != nil {
			t.Fatalf("Commit: %v", err)
		}

		got, err := d.stockLevelSnapshot(sys, in)
		if err != nil {
			t.Fatalf("snapshot StockLevel: %v", err)
		}
		if got != want {
			t.Fatalf("StockLevel(%+v): snapshot=%d conventional=%d", in, got, want)
		}
	}

	if err := d.RunDORA(sys, StockLevel, rng, 0); err != nil {
		t.Fatalf("DORA StockLevel: %v", err)
	}
}
