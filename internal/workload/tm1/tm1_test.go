package tm1

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

// newLoaded builds an engine loaded with a small TM1 database and, when
// withDORA is set, a DORA system bound to it.
func newLoaded(t testing.TB, subscribers int64, withDORA bool) (*Driver, *engine.Engine, *dora.System) {
	t.Helper()
	d := New(subscribers)
	e := engine.New(engine.Config{BufferPoolFrames: 2048})
	// Close the engine's background pruner so repeated runs (-count) do not
	// pile up pruners that starve the next run's CPU.
	t.Cleanup(func() { e.Close() })
	if err := d.CreateTables(e); err != nil {
		t.Fatalf("CreateTables: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := d.Load(e, rng); err != nil {
		t.Fatalf("Load: %v", err)
	}
	var sys *dora.System
	if withDORA {
		sys = dora.NewSystem(e, dora.Config{TxnTimeout: 5 * time.Second})
		if err := d.BindDORA(sys, 2); err != nil {
			t.Fatalf("BindDORA: %v", err)
		}
		t.Cleanup(sys.Stop)
	}
	return d, e, sys
}

func TestRegisteredWithWorkloadRegistry(t *testing.T) {
	drv, err := workload.New("tm1")
	if err != nil {
		t.Fatalf("workload.New: %v", err)
	}
	if drv.Name() != "TM1" {
		t.Fatalf("Name = %q", drv.Name())
	}
}

func TestLoadPopulatesAllTables(t *testing.T) {
	d, e, _ := newLoaded(t, 200, false)
	sub, _ := e.Table("SUBSCRIBER")
	if int64(sub.NumRecords()) != d.Subscribers {
		t.Fatalf("SUBSCRIBER has %d records, want %d", sub.NumRecords(), d.Subscribers)
	}
	for _, name := range []string{"ACCESS_INFO", "SPECIAL_FACILITY", "CALL_FORWARDING"} {
		tbl, err := e.Table(name)
		if err != nil {
			t.Fatalf("Table(%s): %v", name, err)
		}
		if tbl.NumRecords() == 0 {
			t.Fatalf("table %s is empty after load", name)
		}
	}
	// Every subscriber must be probeable.
	txn := e.Begin()
	for sid := int64(1); sid <= d.Subscribers; sid += 37 {
		if _, err := e.Probe(txn, "SUBSCRIBER", sidKey(sid), engine.Conventional()); err != nil {
			t.Fatalf("Probe(%d): %v", sid, err)
		}
	}
	e.Commit(txn)
}

func TestMixWeightsSumTo100(t *testing.T) {
	d := New(100)
	total := 0
	for _, k := range d.Mix() {
		total += k.Weight
	}
	if total != 100 {
		t.Fatalf("mix weights sum to %d, want 100", total)
	}
	rng := rand.New(rand.NewSource(2))
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[d.Mix().Pick(rng)]++
	}
	if counts[GetSubscriberData] < 2800 || counts[GetSubscriberData] > 4200 {
		t.Fatalf("GetSubscriberData frequency %d out of expected band", counts[GetSubscriberData])
	}
	if counts[UpdateSubscriberData] == 0 || counts[DeleteCallForwarding] == 0 {
		t.Fatal("rare transaction kinds never picked")
	}
}

func TestBaselineTransactionsRun(t *testing.T) {
	d, e, _ := newLoaded(t, 300, false)
	rng := rand.New(rand.NewSource(3))
	counts := map[string]int{}
	aborts := 0
	for i := 0; i < 600; i++ {
		kind := d.Mix().Pick(rng)
		counts[kind]++
		err := d.RunBaseline(e, kind, rng, 0)
		if err != nil {
			if errors.Is(err, workload.ErrAborted) {
				aborts++
				continue
			}
			t.Fatalf("RunBaseline(%s): %v", kind, err)
		}
	}
	if aborts == 0 {
		t.Fatal("TM1 must produce intentional aborts (invalid input)")
	}
	if float64(aborts) > 0.6*600 {
		t.Fatalf("abort rate too high: %d/600", aborts)
	}
}

func TestBaselineUnknownKind(t *testing.T) {
	d, e, _ := newLoaded(t, 50, false)
	rng := rand.New(rand.NewSource(4))
	if err := d.RunBaseline(e, "Bogus", rng, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDORATransactionsRunAllKinds(t *testing.T) {
	d, e, sys := newLoaded(t, 300, true)
	_ = e
	rng := rand.New(rand.NewSource(5))
	kinds := []string{
		GetSubscriberData, GetAccessData, GetNewDestination, UpdateLocation,
		UpdateSubscriberData, InsertCallForwarding, DeleteCallForwarding,
		UpdateSubscriberDataParallel, UpdateSubscriberDataSerial,
	}
	aborts, commits := 0, 0
	for i := 0; i < 400; i++ {
		kind := kinds[i%len(kinds)]
		err := d.RunDORA(sys, kind, rng, 0)
		if err != nil {
			if errors.Is(err, workload.ErrAborted) || errors.Is(err, engine.ErrNotFound) {
				aborts++
				continue
			}
			t.Fatalf("RunDORA(%s): %v", kind, err)
		}
		commits++
	}
	if commits == 0 {
		t.Fatal("no DORA transaction committed")
	}
	if aborts == 0 {
		t.Fatal("expected some intentional aborts")
	}
	if err := d.RunDORA(sys, "Bogus", rng, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// runOnDORA runs the flow graph build adds to a fresh transaction of sys.
func runOnDORA(sys *dora.System, build func(*dora.Transaction)) error {
	tx := sys.NewTransaction()
	build(tx)
	return tx.Run()
}

// tableContents lists every row of the TM1 tables in primary-key order.
func tableContents(t *testing.T, e *engine.Engine) map[string][]string {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	out := map[string][]string{}
	for _, table := range []string{"SUBSCRIBER", "ACCESS_INFO", "SPECIAL_FACILITY", "CALL_FORWARDING"} {
		if err := e.ScanTable(txn, table, engine.Conventional(), func(tu storage.Tuple) bool {
			out[table] = append(out[table], fmt.Sprint(tu))
			return true
		}); err != nil {
			t.Fatalf("scan %s: %v", table, err)
		}
	}
	return out
}

// TestBaselineAndDORAProduceSameEffects runs one seeded sequence of all seven
// TM1 kinds on two identically loaded databases, thread-to-transaction on one
// and through DORA on the other: every transaction must end the same way on
// both, and so must every table's contents.
func TestBaselineAndDORAProduceSameEffects(t *testing.T) {
	kinds := []string{
		GetSubscriberData, GetAccessData, GetNewDestination, UpdateLocation,
		UpdateSubscriberData, InsertCallForwarding, DeleteCallForwarding,
	}
	var outcomes [2][]bool
	var contents [2]map[string][]string
	for i, withDORA := range []bool{false, true} {
		d, e, sys := newLoaded(t, 100, withDORA)
		rng := rand.New(rand.NewSource(8))
		for j := 0; j < 700; j++ {
			// Three rounds of the kinds in order, then the standard mix.
			kind := kinds[j%len(kinds)]
			if j >= 3*len(kinds) {
				kind = d.Mix().Pick(rng)
			}
			var err error
			if withDORA {
				err = d.RunDORA(sys, kind, rng, 0)
			} else {
				err = d.RunBaseline(e, kind, rng, 0)
			}
			if err != nil && !errors.Is(err, workload.ErrAborted) {
				t.Fatalf("dora=%v %s #%d: %v", withDORA, kind, j, err)
			}
			outcomes[i] = append(outcomes[i], err == nil)
		}
		if err := d.Check(e); err != nil {
			t.Fatalf("dora=%v invariants: %v", withDORA, err)
		}
		contents[i] = tableContents(t, e)
	}
	for j := range outcomes[0] {
		if outcomes[0][j] != outcomes[1][j] {
			t.Fatalf("transaction %d committed=%v conventionally, %v under DORA", j, outcomes[0][j], outcomes[1][j])
		}
	}
	for table, rows := range contents[0] {
		if len(rows) != len(contents[1][table]) {
			t.Fatalf("%s has %d rows conventionally, %d under DORA", table, len(rows), len(contents[1][table]))
		}
		for k, row := range rows {
			if contents[1][table][k] != row {
				t.Fatalf("%s row %d: conventional %s, DORA %s", table, k, row, contents[1][table][k])
			}
		}
	}

	// Both systems operate on one shared-everything database: a DORA update
	// is visible to a conventional reader.
	_, e, sys := newLoaded(t, 100, true)
	if err := runOnDORA(sys, func(tx *dora.Transaction) { updateLocation(tx, 42, 123456) }); err != nil {
		t.Fatalf("UpdateLocation: %v", err)
	}
	txn := e.Begin()
	rec, err := e.Probe(txn, "SUBSCRIBER", sidKey(42), engine.Conventional())
	if err != nil || rec[4].Int != 123456 {
		t.Fatalf("conventional read after DORA update: %v %v", rec, err)
	}
	e.Commit(txn)
}

func TestUpdateSubscriberDataAbortRollsBackSubscriber(t *testing.T) {
	// With the parallel plan, when the SPECIAL_FACILITY action fails the
	// SUBSCRIBER update of the same transaction must be rolled back.
	d, e, sys := newLoaded(t, 100, true)

	// Find a subscriber missing facility type 4.
	txn := e.Begin()
	var sid int64 = -1
	for cand := int64(1); cand <= d.Subscribers; cand++ {
		if _, err := e.Probe(txn, "SPECIAL_FACILITY", sfKey(cand, 4), engine.Conventional()); errors.Is(err, engine.ErrNotFound) {
			sid = cand
			break
		}
	}
	e.Commit(txn)
	if sid < 0 {
		t.Skip("every subscriber has facility 4 in this seed")
	}
	before := subscriberBit(t, e, sid)
	err := runOnDORA(sys, func(tx *dora.Transaction) { updateSubscriberData(tx, sid, 4, 1-before, 77, dora.PlanParallel) })
	if err == nil {
		t.Fatal("transaction should abort when the facility is missing")
	}
	if got := subscriberBit(t, e, sid); got != before {
		t.Fatalf("subscriber bit changed to %d despite abort", got)
	}
	// Serial plan: same outcome, but the subscriber action never runs.
	err = runOnDORA(sys, func(tx *dora.Transaction) { updateSubscriberData(tx, sid, 4, 1-before, 77, dora.PlanSerial) })
	if err == nil {
		t.Fatal("serial plan should abort too")
	}
	if got := subscriberBit(t, e, sid); got != before {
		t.Fatalf("subscriber bit changed under serial plan abort")
	}
}

func subscriberBit(t *testing.T, e *engine.Engine, sid int64) int64 {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	rec, err := e.Probe(txn, "SUBSCRIBER", sidKey(sid), engine.Conventional())
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	return rec[2].Int
}

func TestInsertThenDeleteCallForwardingRoundTrip(t *testing.T) {
	d, e, sys := newLoaded(t, 100, true)
	// Find a subscriber with facility 1 and no call forwarding at start 0.
	var sid int64 = -1
	txn := e.Begin()
	for cand := int64(1); cand <= d.Subscribers; cand++ {
		if _, err := e.Probe(txn, "SPECIAL_FACILITY", sfKey(cand, 1), engine.Conventional()); err != nil {
			continue
		}
		if _, err := e.Probe(txn, "CALL_FORWARDING", cfKey(cand, 1, 0), engine.Conventional()); errors.Is(err, engine.ErrNotFound) {
			sid = cand
			break
		}
	}
	e.Commit(txn)
	if sid < 0 {
		t.Skip("no suitable subscriber in this seed")
	}
	insert := func(tx *dora.Transaction) { insertCallForwarding(tx, sid, 1, 0, 5, "555-0100") }
	remove := func(tx *dora.Transaction) { deleteCallForwarding(tx, sid, 1, 0) }
	if err := runOnDORA(sys, insert); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// Inserting the same key again violates the primary key -> abort.
	if err := runOnDORA(sys, insert); err == nil {
		t.Fatal("duplicate call forwarding insert accepted")
	}
	if err := runOnDORA(sys, remove); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := runOnDORA(sys, remove); err == nil {
		t.Fatal("deleting a missing call forwarding row should fail")
	}
}

func TestSerialPlanAvoidsWastedSubscriberWorkOnAbort(t *testing.T) {
	// Figure 11 rationale: with the serial plan, an aborting transaction
	// executes only the failing SPECIAL_FACILITY action, so the SUBSCRIBER
	// executors see no work from it.
	d, e, sys := newLoaded(t, 100, true)
	var sid int64 = -1
	txn := e.Begin()
	for cand := int64(1); cand <= d.Subscribers; cand++ {
		if _, err := e.Probe(txn, "SPECIAL_FACILITY", sfKey(cand, 3), engine.Conventional()); errors.Is(err, engine.ErrNotFound) {
			sid = cand
			break
		}
	}
	e.Commit(txn)
	if sid < 0 {
		t.Skip("every subscriber has facility 3 in this seed")
	}
	statsBefore := executedOn(sys, "SUBSCRIBER")
	for i := 0; i < 10; i++ {
		runOnDORA(sys, func(tx *dora.Transaction) { updateSubscriberData(tx, sid, 3, 1, 5, dora.PlanSerial) })
	}
	if got := executedOn(sys, "SUBSCRIBER"); got != statsBefore {
		t.Fatalf("serial aborts still executed %d SUBSCRIBER actions", got-statsBefore)
	}
}

func executedOn(sys *dora.System, table string) uint64 {
	var total uint64
	for _, ex := range sys.Executors(table) {
		total += ex.Stats().ActionsExecuted
	}
	return total
}

func TestCheckInvariants(t *testing.T) {
	d, e, sys := newLoaded(t, 300, true)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		kind := d.Mix().Pick(rng)
		var err error
		if i%2 == 0 {
			err = d.RunDORA(sys, kind, rng, 0)
		} else {
			err = d.RunBaseline(e, kind, rng, 0)
		}
		if err != nil && !errors.Is(err, workload.ErrAborted) {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if err := d.Check(e); err != nil {
		t.Fatalf("invariants after mixed run: %v", err)
	}
	// Orphan a CALL_FORWARDING row by removing its SPECIAL_FACILITY parent:
	// the checker must notice.
	txn := e.Begin()
	var orphanSID, orphanSF int64 = -1, -1
	e.ScanTable(txn, "CALL_FORWARDING", engine.Conventional(), func(tu storage.Tuple) bool {
		orphanSID, orphanSF = tu[0].Int, tu[1].Int
		return false
	})
	if orphanSID < 0 {
		e.Commit(txn)
		t.Skip("no CALL_FORWARDING rows in this seed")
	}
	if err := e.Delete(txn, "SPECIAL_FACILITY", sfKey(orphanSID, orphanSF), engine.Conventional()); err != nil {
		t.Fatal(err)
	}
	e.Commit(txn)
	if err := d.Check(e); err == nil {
		t.Fatal("checker missed an orphaned CALL_FORWARDING row")
	}
}
