package tpcc

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

// custKey is a customer's primary key (warehouse, district, customer id).
type custKey [3]int64

// customerState snapshots the mutable Payment fields of every customer.
func customerState(t *testing.T, e *engine.Engine) map[custKey][3]float64 {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	out := make(map[custKey][3]float64)
	if err := e.ScanTable(txn, "CUSTOMER", engine.Conventional(), func(tu storage.Tuple) bool {
		out[custKey{tu[0].Int, tu[1].Int, tu[2].Int}] = [3]float64{tu[5].Float, tu[6].Float, float64(tu[7].Int)}
		return true
	}); err != nil {
		t.Fatalf("scan CUSTOMER: %v", err)
	}
	return out
}

// byNameSelection is the key of the customer a
// by-name Payment must update, computed by the test itself: look the last
// name up in the by_name index, order the matches by RID and take the middle
// one. ok is false when no customer has the name.
func byNameSelection(t *testing.T, e *engine.Engine, in paymentInput) (key custKey, ok bool) {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	matches, err := e.SecondaryLookup(txn, "CUSTOMER", "by_name", storage.EncodeKey(
		storage.IntValue(in.cWID), storage.IntValue(in.cDID), storage.StringValue(in.cLast)), engine.Conventional())
	if err != nil {
		t.Fatalf("by_name lookup: %v", err)
	}
	if len(matches) == 0 {
		return custKey{}, false
	}
	rids := make([]uint64, len(matches))
	byRID := make(map[uint64]storage.RID, len(matches))
	for i, m := range matches {
		rids[i] = m.RID.Key()
		byRID[rids[i]] = m.RID
	}
	slices.Sort(rids)
	tu, err := e.ProbeRID(txn, "CUSTOMER", byRID[rids[len(rids)/2]], engine.Conventional())
	if err != nil {
		t.Fatalf("probe selected customer: %v", err)
	}
	return custKey{tu[0].Int, tu[1].Int, tu[2].Int}, true
}

// addNamesakes gives every last name of the loaded customers a second holder
// per district (new customer ids after the loaded ones), so a by-name lookup
// has two matches to choose from.
func addNamesakes(t *testing.T, d *Driver, e *engine.Engine) {
	t.Helper()
	txn := e.Begin()
	n := d.CustomersPerDistrict
	for w := int64(1); w <= d.Warehouses; w++ {
		for dd := int64(1); dd <= DistrictsPerWarehouse; dd++ {
			for c := n + 1; c <= 2*n; c++ {
				if _, err := e.Insert(txn, "CUSTOMER", storage.Tuple{
					storage.IntValue(w), storage.IntValue(dd), storage.IntValue(c),
					storage.StringValue(workload.LastName(1 + (c-1)%n)), storage.StringValue("namesake"),
					storage.FloatValue(-10), storage.FloatValue(10), storage.IntValue(1),
				}, engine.Conventional()); err != nil {
					t.Fatalf("insert namesake: %v", err)
				}
			}
		}
	}
	if err := e.Commit(txn); err != nil {
		t.Fatal(err)
	}
}

// TestPaymentByNameModeEquivalence runs the same deterministic by-name
// Payment sequence conventionally and as DORA flows, on databases where each
// last name has two holders per district (addNamesakes). Before each Payment
// the test computes the customer the by-name rule selects (byNameSelection)
// and takes the amount from the same seeded inputs. Each run must end with
// the loaded customer state changed in exactly those customers: per committed
// Payment, the selected one's balance, YTD payment and payment count move by
// -amount, +amount and +1, and no other customer changes.
func TestPaymentByNameModeEquivalence(t *testing.T) {
	const txns = 120
	var states []map[custKey][3]float64
	for _, withDORA := range []bool{false, true} {
		d, e, sys := newLoaded(t, withDORA)
		d.ByNamePercent = 100
		addNamesakes(t, d, e)
		rng := rand.New(rand.NewSource(99))
		inputs := rand.New(rand.NewSource(99)) // replays the Payments' draws
		want := customerState(t, e)
		committed := 0
		for i := 0; i < txns; i++ {
			in := d.genPayment(inputs)
			sel, found := byNameSelection(t, e, in)
			err := runKind(d, e, sys, Payment, rng, 0)
			if err != nil && !errors.Is(err, workload.ErrAborted) {
				t.Fatalf("dora=%v payment %d: %v", withDORA, i, err)
			}
			if (err == nil) != found {
				t.Fatalf("dora=%v payment %d (%+v): committed=%v, but a customer named %q exists=%v",
					withDORA, i, in, err == nil, in.cLast, found)
			}
			if err == nil {
				c := want[sel]
				want[sel] = [3]float64{c[0] - in.amount, c[1] + in.amount, c[2] + 1}
				committed++
			}
		}
		got := customerState(t, e)
		if len(got) != len(want) {
			t.Fatalf("dora=%v: %d customers, want %d", withDORA, len(got), len(want))
		}
		for k, w := range want {
			for f := range w {
				if math.Abs(got[k][f]-w[f]) > 1e-6 {
					t.Fatalf("dora=%v: customer %v is %v, want %v", withDORA, k, got[k], w)
				}
			}
		}
		if committed == 0 {
			t.Fatalf("dora=%v: no by-name Payment committed", withDORA)
		}
		if err := d.Check(e); err != nil {
			t.Fatalf("dora=%v invariants: %v", withDORA, err)
		}
		states = append(states, customerState(t, e))
	}
	if len(states[1]) != len(states[0]) {
		t.Fatalf("DORA has %d customers, conventional %d", len(states[1]), len(states[0]))
	}
	for k, v := range states[0] {
		if states[1][k] != v {
			t.Fatalf("customer %v diverged: conventional %v, DORA %v", k, v, states[1][k])
		}
	}
}

// TestOrderStatusByNameModeEquivalence: the same by-name OrderStatus
// sequences commit the same number of times conventionally and as DORA flows,
// and (being read-only) leave every customer unchanged. Serial runs one
// client; Parallel runs several concurrent clients, each with its own
// sequence, so by-name resolutions and forwards interleave.
func TestOrderStatusByNameModeEquivalence(t *testing.T) {
	t.Run("Serial", func(t *testing.T) { checkOrderStatusByName(t, 1, 80) })
	t.Run("Parallel", func(t *testing.T) { checkOrderStatusByName(t, 4, 30) })
}

// checkOrderStatusByName runs perClient by-name OrderStatus transactions from
// each of clients concurrent clients, once conventionally and once through
// DORA, and compares the commits per client.
func checkOrderStatusByName(t *testing.T, clients, perClient int) {
	ran := make([][]int, 2)
	for i, withDORA := range []bool{false, true} {
		d, e, sys := newLoaded(t, withDORA)
		d.ByNamePercent = 100
		before := customerState(t, e)
		ran[i] = make([]int, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(7 + int64(c)*7919))
				for j := 0; j < perClient; j++ {
					err := runKind(d, e, sys, OrderStatus, rng, c)
					if err == nil {
						ran[i][c]++
					} else if !errors.Is(err, workload.ErrAborted) {
						t.Errorf("dora=%v client %d orderStatus %d: %v", withDORA, c, j, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		after := customerState(t, e)
		for k, v := range before {
			if after[k] != v {
				t.Fatalf("dora=%v: read-only OrderStatus mutated customer %v: %v -> %v", withDORA, k, v, after[k])
			}
		}
	}
	for c := 0; c < clients; c++ {
		if ran[0][c] == 0 || ran[0][c] != ran[1][c] {
			t.Fatalf("client %d committed OrderStatus: conventional %d, DORA %d; want equal and nonzero", c, ran[0][c], ran[1][c])
		}
	}
}

// TestDeliveryParallelProbesEquivalence seeds undelivered orders and runs the
// same NewOrder/Delivery sequence conventionally and as DORA flows, whose
// per-district probes share one phase; both must deliver the same orders and
// leave states that pass the invariant checker.
func TestDeliveryParallelProbesEquivalence(t *testing.T) {
	var counts [2]int
	for i, withDORA := range []bool{false, true} {
		d, e, sys := newLoaded(t, withDORA)
		rng := rand.New(rand.NewSource(31))
		for j := 0; j < 40; j++ {
			kind := NewOrder
			if j%4 == 3 {
				kind = Delivery
			}
			err := runKind(d, e, sys, kind, rng, 0)
			if err != nil && !errors.Is(err, workload.ErrAborted) {
				t.Fatalf("dora=%v txn %d (%s): %v", withDORA, j, kind, err)
			}
		}
		if err := d.Check(e); err != nil {
			t.Fatalf("dora=%v invariants: %v", withDORA, err)
		}
		// Count the remaining undelivered orders; the deterministic sequence
		// must leave the same number on both paths.
		txn := e.Begin()
		if err := e.ScanTable(txn, "NEW_ORDER", engine.Conventional(), func(storage.Tuple) bool {
			counts[i]++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		e.Commit(txn)
	}
	if counts[0] != counts[1] {
		t.Fatalf("undelivered orders diverged: conventional %d, DORA %d", counts[0], counts[1])
	}
}

// TestSecondaryHeavyMixForwards sanity-checks the wiring: a by-name heavy mix
// runs its secondary actions inline on the RVP threads and forwards primary
// actions to the owning executors.
func TestSecondaryHeavyMixForwards(t *testing.T) {
	d, _, sys := newLoaded(t, true)
	d.ByNamePercent = 100
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		kind := Payment
		if i%3 == 1 {
			kind = OrderStatus
		} else if i%3 == 2 {
			kind = Delivery
		}
		if err := d.RunDORA(sys, kind, rng, 0); err != nil && !errors.Is(err, workload.ErrAborted) {
			t.Fatalf("txn %d (%s): %v", i, kind, err)
		}
	}
	st := sys.Stats()
	if st.SecondariesInline == 0 || st.SecondariesParallel != 0 {
		t.Fatalf("secondary actions: inline %d, parallel %d; want inline only", st.SecondariesInline, st.SecondariesParallel)
	}
	if st.ActionsForwarded == 0 {
		t.Fatalf("no actions forwarded: %+v", st)
	}
}
