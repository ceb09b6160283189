package tpcc

import (
	"math/rand"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
)

// stockLevelInput is the parameter set of one StockLevel transaction (TPC-C
// §2.8): a district and the quantity threshold below which stock counts as
// low.
type stockLevelInput struct {
	wID, dID  int64
	threshold int64
}

func (d *Driver) genStockLevel(rng *rand.Rand) stockLevelInput {
	return stockLevelInput{
		wID:       d.pickWarehouse(rng),
		dID:       1 + rng.Int63n(DistrictsPerWarehouse),
		threshold: 10 + rng.Int63n(11), // uniform in [10, 20]
	}
}

// stockLevelOrders is how many of the district's most recent orders the scan
// examines (§2.8.2.2 prescribes the last 20).
const stockLevelOrders = 20

// recentOrderRange returns the order-id window [lo, hi) covering the last 20
// orders given the district's next order id.
func recentOrderRange(nextOID int64) (lo, hi int64) {
	lo = nextOID - stockLevelOrders
	if lo < 1 {
		lo = 1
	}
	return lo, nextOID
}

// stockLevelConventional counts the distinct items of the district's last 20
// orders whose stock quantity sits below the threshold. It is read-only.
func (d *Driver) stockLevelConventional(e *engine.Engine, txn *engine.Txn, in stockLevelInput, opt engine.AccessOptions) (int64, error) {
	rec, err := e.Probe(txn, "DISTRICT", ik(in.wID, in.dID), opt)
	if err != nil {
		return 0, err
	}
	lo, hi := recentOrderRange(rec[5].Int)
	items := make(map[int64]struct{})
	for o := lo; o < hi; o++ {
		if err := e.ScanPrefix(txn, "ORDER_LINE", ik(in.wID, in.dID, o), opt, func(tu storage.Tuple) bool {
			items[tu[4].Int] = struct{}{}
			return true
		}); err != nil {
			return 0, err
		}
	}
	return countLowStock(items, in, func(pk storage.Key) (storage.Tuple, error) {
		return e.Probe(txn, "STOCK", pk, opt)
	})
}

// countLowStock probes the stock row of every distinct item and counts those
// below the threshold.
func countLowStock(items map[int64]struct{}, in stockLevelInput, probe func(storage.Key) (storage.Tuple, error)) (int64, error) {
	var low int64
	for item := range items {
		rec, err := probe(ik(in.wID, item))
		if err != nil {
			return 0, err
		}
		if rec[2].Int < in.threshold {
			low++
		}
	}
	return low, nil
}

// stockLevelSnapshot runs StockLevel against one epoch-pinned snapshot,
// outside the executors entirely: the ranged ORDER_LINE scan and the STOCK
// probes take no local-lock-table entries and no incoming-queue latches, so
// the transaction never contends with NewOrder/Payment writers and writers
// never wait on it. All reads resolve at the same commit epoch, so the count
// comes from one consistent image of the database. It is the DORA StockLevel
// path.
func (d *Driver) stockLevelSnapshot(sys *dora.System, in stockLevelInput) (int64, error) {
	var low int64
	err := sys.WithSnapshot(func(snap *engine.Snapshot) error {
		rec, err := snap.Probe("DISTRICT", ik(in.wID, in.dID))
		if err != nil {
			return err
		}
		lo, hi := recentOrderRange(rec[5].Int)
		items := make(map[int64]struct{})
		for o := lo; o < hi; o++ {
			if err := snap.ScanPrefix("ORDER_LINE", ik(in.wID, in.dID, o), func(tu storage.Tuple) bool {
				items[tu[4].Int] = struct{}{}
				return true
			}); err != nil {
				return err
			}
		}
		low, err = countLowStock(items, in, func(pk storage.Key) (storage.Tuple, error) {
			return snap.Probe("STOCK", pk)
		})
		return err
	})
	return low, err
}
