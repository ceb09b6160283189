package tpcc

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

// newLoaded builds a small TPC-C database (2 warehouses, shrunken
// cardinalities) and optionally a DORA system over it.
func newLoaded(t testing.TB, withDORA bool) (*Driver, *engine.Engine, *dora.System) {
	t.Helper()
	d := New(2)
	d.CustomersPerDistrict = 30
	d.Items = 100
	e := engine.New(engine.Config{BufferPoolFrames: 4096})
	// Each engine runs a background pruner; close it so repeated runs
	// (-count) do not pile up pruners that starve the next run's CPU.
	t.Cleanup(func() { e.Close() })
	if err := d.CreateTables(e); err != nil {
		t.Fatalf("CreateTables: %v", err)
	}
	if err := d.Load(e, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("Load: %v", err)
	}
	var sys *dora.System
	if withDORA {
		sys = dora.NewSystem(e, dora.Config{TxnTimeout: 10 * time.Second})
		if err := d.BindDORA(sys, 2); err != nil {
			t.Fatalf("BindDORA: %v", err)
		}
		t.Cleanup(sys.Stop)
	}
	return d, e, sys
}

// runFlow runs the flow graph build adds to a fresh transaction: through DORA
// when sys is non-nil, thread-to-transaction on e otherwise.
func runFlow(e *engine.Engine, sys *dora.System, build func(*dora.Transaction)) error {
	if sys == nil {
		tx := dora.NewFlow()
		build(tx)
		return dora.RunConventional(e, tx, 0)
	}
	tx := sys.NewTransaction()
	build(tx)
	return tx.Run()
}

func TestRegisteredWithWorkloadRegistry(t *testing.T) {
	drv, err := workload.New("tpcc")
	if err != nil {
		t.Fatalf("workload.New: %v", err)
	}
	if drv.Name() != "TPC-C" {
		t.Fatalf("Name = %q", drv.Name())
	}
}

func TestLoadCardinalities(t *testing.T) {
	d, e, _ := newLoaded(t, false)
	expect := map[string]int{
		"WAREHOUSE": int(d.Warehouses),
		"DISTRICT":  int(d.Warehouses) * DistrictsPerWarehouse,
		"CUSTOMER":  int(d.Warehouses) * DistrictsPerWarehouse * int(d.CustomersPerDistrict),
		"ITEM":      int(d.Items),
		"STOCK":     int(d.Warehouses) * int(d.Items),
		"ORDERS":    int(d.Warehouses) * DistrictsPerWarehouse * initialOrdersPerDistrict,
	}
	for table, want := range expect {
		tbl, err := e.Table(table)
		if err != nil {
			t.Fatalf("Table(%s): %v", table, err)
		}
		if tbl.NumRecords() != want {
			t.Fatalf("%s has %d records, want %d", table, tbl.NumRecords(), want)
		}
	}
	ol, _ := e.Table("ORDER_LINE")
	if ol.NumRecords() == 0 {
		t.Fatal("ORDER_LINE is empty")
	}
}

func TestMixPicksAllKinds(t *testing.T) {
	d := New(1)
	rng := rand.New(rand.NewSource(2))
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[d.Mix().Pick(rng)]++
	}
	for _, k := range []string{Payment, OrderStatus, NewOrder, Delivery, StockLevel} {
		if counts[k] == 0 {
			t.Fatalf("kind %s never picked", k)
		}
	}
	// The standard 45/43/4/4/4 weights: NewOrder and Payment dominate.
	if counts[NewOrder] < 4*counts[Delivery] || counts[Payment] < 4*counts[StockLevel] {
		t.Fatalf("mix weights look wrong: %v", counts)
	}
}

func TestBaselineTransactions(t *testing.T) {
	d, e, _ := newLoaded(t, false)
	rng := rand.New(rand.NewSource(3))
	committed := map[string]int{}
	for i := 0; i < 300; i++ {
		kind := d.Mix().Pick(rng)
		err := d.RunBaseline(e, kind, rng, 0)
		if err != nil && !errors.Is(err, workload.ErrAborted) {
			t.Fatalf("RunBaseline(%s): %v", kind, err)
		}
		if err == nil {
			committed[kind]++
		}
	}
	for _, k := range []string{Payment, OrderStatus, NewOrder} {
		if committed[k] == 0 {
			t.Fatalf("kind %s never committed", k)
		}
	}
	if err := d.RunBaseline(e, "Bogus", rng, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDORATransactions(t *testing.T) {
	d, e, sys := newLoaded(t, true)
	_ = e
	rng := rand.New(rand.NewSource(4))
	committed := map[string]int{}
	for i := 0; i < 200; i++ {
		kind := d.Mix().Pick(rng)
		err := d.RunDORA(sys, kind, rng, 0)
		if err != nil && !errors.Is(err, workload.ErrAborted) {
			t.Fatalf("RunDORA(%s): %v", kind, err)
		}
		if err == nil {
			committed[kind]++
		}
	}
	for _, k := range []string{Payment, OrderStatus, NewOrder} {
		if committed[k] == 0 {
			t.Fatalf("kind %s never committed under DORA", k)
		}
	}
	if err := d.RunDORA(sys, "Bogus", rng, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestPaymentMoneyConservation(t *testing.T) {
	// Warehouse YTD, District YTD, and customer YTD payments must all grow
	// by exactly the paid amount; both execution paths must agree.
	d, e, sys := newLoaded(t, true)

	sumWarehouseYTD := func() float64 {
		txn := e.Begin()
		defer e.Commit(txn)
		var sum float64
		e.ScanTable(txn, "WAREHOUSE", engine.Conventional(), func(tu storage.Tuple) bool {
			sum += tu[3].Float
			return true
		})
		return sum
	}
	before := sumWarehouseYTD()

	inBase := paymentInput{wID: 1, dID: 1, cWID: 1, cDID: 1, cID: 3, amount: 100}
	if err := runFlow(e, nil, func(tx *dora.Transaction) { d.payment(tx, inBase) }); err != nil {
		t.Fatalf("conventional Payment: %v", err)
	}

	inDORA := paymentInput{wID: 2, dID: 2, cWID: 2, cDID: 2, cID: 0, cLast: workload.LastName(5), amount: 50}
	if err := runFlow(e, sys, func(tx *dora.Transaction) { d.payment(tx, inDORA) }); err != nil {
		t.Fatalf("DORA Payment: %v", err)
	}

	after := sumWarehouseYTD()
	if diff := after - before; diff < 149.9 || diff > 150.1 {
		t.Fatalf("warehouse YTD grew by %v, want 150", diff)
	}

	// The history table must have two new rows.
	hist, _ := e.Table("HISTORY")
	if hist.NumRecords() != 2 {
		t.Fatalf("HISTORY has %d records, want 2", hist.NumRecords())
	}
}

func TestRemotePaymentRoutesToRemoteExecutor(t *testing.T) {
	// A Payment paying at warehouse 1 for a customer of warehouse 2 routes
	// the customer action to warehouse 2's executor; the transaction is not
	// "distributed" in any special way (§4.1.2).
	d, e, sys := newLoaded(t, true)
	in := paymentInput{wID: 1, dID: 1, cWID: 2, cDID: 3, cID: 7, amount: 10}
	if err := runFlow(e, sys, func(tx *dora.Transaction) { d.payment(tx, in) }); err != nil {
		t.Fatalf("remote DORA Payment: %v", err)
	}
	txn := e.Begin()
	rec, err := e.Probe(txn, "CUSTOMER", ik(2, 3, 7), engine.Conventional())
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if rec[5].Float != -10-10 {
		t.Fatalf("customer balance = %v, want -20", rec[5].Float)
	}
	e.Commit(txn)
}

func TestNewOrderIncrementsDistrictAndInsertsRows(t *testing.T) {
	d, e, sys := newLoaded(t, true)
	readNextOID := func(w, dd int64) int64 {
		txn := e.Begin()
		defer e.Commit(txn)
		rec, err := e.Probe(txn, "DISTRICT", ik(w, dd), engine.Conventional())
		if err != nil {
			t.Fatalf("Probe district: %v", err)
		}
		return rec[5].Int
	}
	beforeOID := readNextOID(1, 1)
	orders, _ := e.Table("ORDERS")
	lines, _ := e.Table("ORDER_LINE")
	ordersBefore, linesBefore := orders.NumRecords(), lines.NumRecords()

	in := newOrderInput{wID: 1, dID: 1, cID: 5, items: []int64{1, 2, 3}, quantities: []int64{1, 2, 3}}
	if err := runFlow(e, sys, func(tx *dora.Transaction) { newOrder(tx, in) }); err != nil {
		t.Fatalf("DORA NewOrder: %v", err)
	}
	if got := readNextOID(1, 1); got != beforeOID+1 {
		t.Fatalf("next_o_id = %d, want %d", got, beforeOID+1)
	}
	if orders.NumRecords() != ordersBefore+1 {
		t.Fatalf("ORDERS grew by %d, want 1", orders.NumRecords()-ordersBefore)
	}
	if lines.NumRecords() != linesBefore+3 {
		t.Fatalf("ORDER_LINE grew by %d, want 3", lines.NumRecords()-linesBefore)
	}

	// Conventional NewOrder with an invalid item aborts and leaves no rows.
	bad := newOrderInput{wID: 1, dID: 2, cID: 1, items: []int64{d.Items + 100}, quantities: []int64{1}, invalid: true}
	if err := runFlow(e, nil, func(tx *dora.Transaction) { newOrder(tx, bad) }); err == nil {
		t.Fatal("invalid item accepted")
	}
	if orders.NumRecords() != ordersBefore+1 {
		t.Fatal("aborted NewOrder left rows in ORDERS")
	}

	// DORA NewOrder with an invalid item also aborts cleanly.
	if err := runFlow(e, sys, func(tx *dora.Transaction) { newOrder(tx, bad) }); err == nil {
		t.Fatal("invalid DORA NewOrder accepted")
	}
	if got := readNextOID(1, 2); got != initialOrdersPerDistrict+1 {
		t.Fatalf("aborted DORA NewOrder leaked district increment: next_o_id=%d", got)
	}
}

func TestOrderStatusFindsLatestOrder(t *testing.T) {
	_, e, sys := newLoaded(t, true)
	// Create two orders for customer (1,1,9); OrderStatus must read lines of
	// the newest one without error.
	for i := 0; i < 2; i++ {
		in := newOrderInput{wID: 1, dID: 1, cID: 9, items: []int64{4, 5}, quantities: []int64{1, 1}}
		if err := runFlow(e, sys, func(tx *dora.Transaction) { newOrder(tx, in) }); err != nil {
			t.Fatalf("DORA NewOrder: %v", err)
		}
	}
	byID := orderStatusInput{wID: 1, dID: 1, cID: 9}
	if err := runFlow(e, sys, func(tx *dora.Transaction) { orderStatus(tx, byID) }); err != nil {
		t.Fatalf("DORA OrderStatus by id: %v", err)
	}
	txn := e.Begin()
	rec, err := e.Probe(txn, "CUSTOMER", ik(1, 1, 9), engine.Conventional())
	if err != nil {
		t.Fatal(err)
	}
	last := rec[3].Str
	e.Commit(txn)
	byName := orderStatusInput{wID: 1, dID: 1, cLast: last}
	if err := runFlow(e, sys, func(tx *dora.Transaction) { orderStatus(tx, byName) }); err != nil {
		t.Fatalf("DORA OrderStatus by name: %v", err)
	}
	// Thread-to-transaction, both selection modes.
	for _, in := range []orderStatusInput{byID, byName} {
		if err := runFlow(e, nil, func(tx *dora.Transaction) { orderStatus(tx, in) }); err != nil {
			t.Fatalf("conventional OrderStatus %+v: %v", in, err)
		}
	}
}

func TestGenNewOrderInvalidRate(t *testing.T) {
	d := New(2)
	rng := rand.New(rand.NewSource(9))
	invalid := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if d.genNewOrder(rng).invalid {
			invalid++
		}
	}
	// Roughly 1% per the specification.
	if invalid < n/400 || invalid > n/25 {
		t.Fatalf("invalid NewOrder rate = %d/%d, want about 1%%", invalid, n)
	}
}

func TestGenPaymentRemoteRate(t *testing.T) {
	d := New(4)
	rng := rand.New(rand.NewSource(10))
	remote := 0
	const n = 20000
	for i := 0; i < n; i++ {
		in := d.genPayment(rng)
		if in.cWID != in.wID {
			remote++
		}
	}
	frac := float64(remote) / n
	if frac < 0.10 || frac > 0.20 {
		t.Fatalf("remote payment fraction = %.3f, want about 0.15", frac)
	}
}
