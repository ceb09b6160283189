package tpcc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

// makeOrder runs one deterministic NewOrder thread-to-transaction so the
// district gains an undelivered order, and returns its order id.
func makeOrder(t *testing.T, e *engine.Engine, w, dd, c int64) int64 {
	t.Helper()
	in := newOrderInput{wID: w, dID: dd, cID: c, items: []int64{1, 2}, quantities: []int64{1, 1}}
	if err := runFlow(e, nil, func(tx *dora.Transaction) { newOrder(tx, in) }); err != nil {
		t.Fatalf("NewOrder: %v", err)
	}
	// The order id is the district's next_o_id before the increment.
	check := e.Begin()
	rec, err := e.Probe(check, "DISTRICT", ik(w, dd), engine.Conventional())
	if err != nil {
		t.Fatal(err)
	}
	e.Commit(check)
	return rec[5].Int - 1
}

func countRows(t *testing.T, e *engine.Engine, table string, prefix storage.Key) int {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	n := 0
	if err := e.ScanPrefix(txn, table, prefix, engine.Conventional(), func(storage.Tuple) bool {
		n++
		return true
	}); err != nil {
		t.Fatalf("ScanPrefix(%s): %v", table, err)
	}
	return n
}

func probeTuple(t *testing.T, e *engine.Engine, table string, pk storage.Key) storage.Tuple {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	rec, err := e.Probe(txn, table, pk, engine.Conventional())
	if err != nil {
		t.Fatalf("Probe(%s): %v", table, err)
	}
	return rec
}

func TestDeliveryConventionalDeliversOldestPerDistrict(t *testing.T) {
	d, e, _ := newLoaded(t, false)
	// Two undelivered orders in district 1, one in district 2.
	first := makeOrder(t, e, 1, 1, 3)
	makeOrder(t, e, 1, 1, 4)
	makeOrder(t, e, 1, 2, 5)
	if got := countRows(t, e, "NEW_ORDER", ik(1)); got != 3 {
		t.Fatalf("NEW_ORDER rows = %d, want 3", got)
	}
	balBefore := probeTuple(t, e, "CUSTOMER", ik(1, 1, 3))[5].Float

	var delivered int
	if err := runFlow(e, nil, func(tx *dora.Transaction) { delivery(tx, deliveryInput{wID: 1, carrierID: 7}, &delivered) }); err != nil {
		t.Fatalf("conventional Delivery: %v", err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d orders, want 2 (districts 1 and 2)", delivered)
	}
	// The oldest order of district 1 was delivered, the newer one remains.
	if got := countRows(t, e, "NEW_ORDER", ik(1, 1)); got != 1 {
		t.Fatalf("district 1 NEW_ORDER rows = %d, want 1", got)
	}
	order := probeTuple(t, e, "ORDERS", ik(1, 1, first))
	if order[4].Int != 7 {
		t.Fatalf("o_carrier_id = %d, want 7", order[4].Int)
	}
	// The customer's balance grew by the order's line amounts.
	amount := 0.0
	txn2 := e.Begin()
	e.ScanPrefix(txn2, "ORDER_LINE", ik(1, 1, first), engine.Conventional(), func(tu storage.Tuple) bool {
		amount += tu[6].Float
		return true
	})
	e.Commit(txn2)
	balAfter := probeTuple(t, e, "CUSTOMER", ik(1, 1, 3))[5].Float
	if diff := balAfter - balBefore; diff < amount-0.01 || diff > amount+0.01 {
		t.Fatalf("customer balance grew by %v, want %v", diff, amount)
	}
	// A warehouse with no undelivered orders delivers nothing.
	delivered = -1
	err := runFlow(e, nil, func(tx *dora.Transaction) { delivery(tx, deliveryInput{wID: 2, carrierID: 1}, &delivered) })
	if err != nil || delivered != 0 {
		t.Fatalf("empty-warehouse delivery = (%d, %v), want (0, nil)", delivered, err)
	}

	if err := d.Check(e); err != nil {
		t.Fatalf("invariants after conventional Delivery: %v", err)
	}
}

func TestDeliveryDORAFlowGraphShapeAndEffects(t *testing.T) {
	d, e, sys := newLoaded(t, true)
	oldest := makeOrder(t, e, 1, 3, 6)
	makeOrder(t, e, 1, 3, 7)

	var delivered int
	tx := sys.NewTransaction()
	delivery(tx, deliveryInput{wID: 1, carrierID: 9}, &delivered)
	// The genuinely multi-phase graph: the four lock claims, then one
	// secondary probe per district (which forward the NEW_ORDER deletes),
	// then the ORDERS/ORDER_LINE pair, then the CUSTOMER update — 4 phases,
	// 4 claims + 10 probes + 3 work actions (forwarded deletes are not part
	// of the static graph).
	if tx.NumPhases() != 4 {
		t.Fatalf("Delivery flow graph has %d phases, want 4", tx.NumPhases())
	}
	if want := 4 + int(DistrictsPerWarehouse) + 3; tx.NumActions() != want {
		t.Fatalf("Delivery flow graph has %d actions, want %d", tx.NumActions(), want)
	}
	if err := tx.Run(); err != nil {
		t.Fatalf("delivery flow: %v", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d orders, want 1", delivered)
	}
	if got := probeTuple(t, e, "ORDERS", ik(1, 3, oldest))[4].Int; got != 9 {
		t.Fatalf("o_carrier_id = %d, want 9", got)
	}
	// Oldest-first: the second delivery picks up the remaining order.
	if err := runFlow(e, sys, func(tx *dora.Transaction) { delivery(tx, deliveryInput{wID: 1, carrierID: 2}, nil) }); err != nil {
		t.Fatalf("second DORA Delivery: %v", err)
	}
	if got := countRows(t, e, "NEW_ORDER", ik(1, 3)); got != 0 {
		t.Fatalf("district 3 NEW_ORDER rows = %d, want 0", got)
	}
	if err := d.Check(e); err != nil {
		t.Fatalf("invariants after DORA Delivery: %v", err)
	}
}

// TestDeliveryBothModesSameInvariantVerdict runs the same deterministic
// NewOrder+Delivery interleaving conventionally and as DORA flow graphs on
// two identical databases; both final states must pass the checker.
func TestDeliveryBothModesSameInvariantVerdict(t *testing.T) {
	verdicts := make([]error, 2)
	for i, withDORA := range []bool{false, true} {
		d, e, sys := newLoaded(t, withDORA)
		rng := rand.New(rand.NewSource(21))
		for j := 0; j < 60; j++ {
			var err error
			kind := NewOrder
			if j%3 == 2 {
				kind = Delivery
			}
			if withDORA {
				err = d.RunDORA(sys, kind, rng, 0)
			} else {
				err = d.RunBaseline(e, kind, rng, 0)
			}
			if err != nil && !errors.Is(err, workload.ErrAborted) {
				t.Fatalf("%s (dora=%v): %v", kind, withDORA, err)
			}
		}
		verdicts[i] = d.Check(e)
	}
	if verdicts[0] != nil || verdicts[1] != nil {
		t.Fatalf("invariant verdicts differ or fail: conventional=%v dora=%v", verdicts[0], verdicts[1])
	}
}

func TestStockLevelBothModesAgree(t *testing.T) {
	d, e, sys := newLoaded(t, true)
	// A few fresh orders so the recent-order window has known lines.
	for i := int64(0); i < 5; i++ {
		makeOrder(t, e, 1, 1, 3+i)
	}
	for _, in := range []stockLevelInput{
		{wID: 1, dID: 1, threshold: 10},
		{wID: 1, dID: 1, threshold: 20},
		{wID: 2, dID: 4, threshold: 15},
	} {
		txn := e.Begin()
		conv, err := d.stockLevelConventional(e, txn, in, engine.Conventional())
		if err != nil {
			t.Fatalf("stockLevelConventional(%+v): %v", in, err)
		}
		e.Commit(txn)

		low, err := d.stockLevelSnapshot(sys, in)
		if err != nil {
			t.Fatalf("stockLevelSnapshot(%+v): %v", in, err)
		}
		if low != conv {
			t.Fatalf("low-stock count differs: conventional=%d dora=%d (%+v)", conv, low, in)
		}
	}
	// Higher thresholds can only widen the low-stock set.
	txn := e.Begin()
	lo, _ := d.stockLevelConventional(e, txn, stockLevelInput{wID: 1, dID: 1, threshold: 10}, engine.Conventional())
	hi, _ := d.stockLevelConventional(e, txn, stockLevelInput{wID: 1, dID: 1, threshold: 20}, engine.Conventional())
	e.Commit(txn)
	if hi < lo {
		t.Fatalf("threshold 20 found %d < threshold 10's %d", hi, lo)
	}
	if err := d.Check(e); err != nil {
		t.Fatalf("read-only StockLevel broke invariants: %v", err)
	}
}

// TestFiveTransactionMixBothSystems runs the five-transaction mix on both
// execution systems from one client, and on DORA from 4 concurrent ones (800
// transactions), gating each run on the §3.3.2 consistency checker. The
// Baseline stays single-client: a concurrent Baseline TPC-C run can fail a
// deadlock victim's rollback ("page full") and latch the engine Failed.
func TestFiveTransactionMixBothSystems(t *testing.T) {
	for _, withDORA := range []bool{false, true} {
		d, e, sys := newLoaded(t, withDORA)
		committed := runClients(t, d, e, sys, 1, 500)
		for _, k := range []string{Payment, OrderStatus, NewOrder, Delivery, StockLevel} {
			if committed[k] == 0 {
				t.Fatalf("kind %s never committed (dora=%v): %v", k, withDORA, committed)
			}
		}
		if err := d.Check(e); err != nil {
			t.Fatalf("invariants after mix (dora=%v): %v", withDORA, err)
		}
	}
	d, e, sys := newLoaded(t, true)
	if committed := runClients(t, d, e, sys, 4, 200); len(committed) == 0 {
		t.Fatal("concurrent DORA mix committed nothing")
	}
	if err := d.Check(e); err != nil {
		t.Fatalf("invariants after concurrent DORA mix: %v", err)
	}
}

// runKind runs one transaction of the given kind as worker w: through DORA
// when sys is non-nil, conventionally otherwise.
func runKind(d *Driver, e *engine.Engine, sys *dora.System, kind string, rng *rand.Rand, w int) error {
	if sys != nil {
		return d.RunDORA(sys, kind, rng, w)
	}
	return d.RunBaseline(e, kind, rng, w)
}

// runClients drives the driver's mix from workers concurrent clients,
// perWorker transactions each (see runKind). Aborts are expected; any other
// error fails the test. It returns the commits per transaction kind.
func runClients(t *testing.T, d *Driver, e *engine.Engine, sys *dora.System, workers, perWorker int) map[string]int {
	t.Helper()
	var mu sync.Mutex
	committed := map[string]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(31 + int64(w)*7919))
			for i := 0; i < perWorker; i++ {
				kind := d.Mix().Pick(rng)
				err := runKind(d, e, sys, kind, rng, w)
				if err != nil && !errors.Is(err, workload.ErrAborted) {
					t.Errorf("%s (dora=%v, worker %d): %v", kind, sys != nil, w, err)
					return
				}
				if err == nil {
					mu.Lock()
					committed[kind]++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return committed
}

func TestCheckDetectsCorruption(t *testing.T) {
	d, e, _ := newLoaded(t, false)
	if err := d.Check(e); err != nil {
		t.Fatalf("freshly loaded database fails checker: %v", err)
	}
	// Break Payment conservation: bump a warehouse YTD without its districts.
	txn := e.Begin()
	if err := e.Update(txn, "WAREHOUSE", ik(1), engine.Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(tu[3].Float + 1000)
		return tu, nil
	}); err != nil {
		t.Fatal(err)
	}
	e.Commit(txn)
	if err := d.Check(e); err == nil {
		t.Fatal("checker missed a W_YTD / Σ D_YTD mismatch")
	}
	// Restore, then break order-line consistency.
	txn = e.Begin()
	e.Update(txn, "WAREHOUSE", ik(1), engine.Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[3] = storage.FloatValue(tu[3].Float - 1000)
		return tu, nil
	})
	e.Commit(txn)
	txn = e.Begin()
	if err := e.Delete(txn, "ORDER_LINE", ik(1, 1, 1, 1), engine.Conventional()); err != nil {
		t.Fatal(err)
	}
	e.Commit(txn)
	if err := d.Check(e); err == nil {
		t.Fatal("checker missed an O_OL_CNT / ORDER_LINE mismatch")
	}
}

func TestGenDeliveryAndStockLevelRanges(t *testing.T) {
	d := New(3)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		del := d.genDelivery(rng)
		if del.wID < 1 || del.wID > 3 || del.carrierID < 1 || del.carrierID > 10 {
			t.Fatalf("genDelivery out of range: %+v", del)
		}
		sl := d.genStockLevel(rng)
		if sl.wID < 1 || sl.wID > 3 || sl.dID < 1 || sl.dID > DistrictsPerWarehouse {
			t.Fatalf("genStockLevel out of range: %+v", sl)
		}
		if sl.threshold < 10 || sl.threshold > 20 {
			t.Fatalf("threshold %d outside [10,20]", sl.threshold)
		}
	}
}
