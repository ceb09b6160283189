package tpcc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

// customerState snapshots the mutable Payment fields of every customer.
func customerState(t *testing.T, e *engine.Engine) map[string][3]float64 {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	out := make(map[string][3]float64)
	if err := e.ScanTable(txn, "CUSTOMER", engine.Conventional(), func(tu storage.Tuple) bool {
		k := tu[0].String() + "/" + tu[1].String() + "/" + tu[2].String()
		out[k] = [3]float64{tu[5].Float, tu[6].Float, float64(tu[7].Int)}
		return true
	}); err != nil {
		t.Fatalf("scan CUSTOMER: %v", err)
	}
	return out
}

// TestPaymentByNameModeEquivalence runs the same deterministic by-name
// Payment sequence conventionally and as DORA flows and demands identical
// final customer state: the resolve-then-forward path must select and update
// exactly the customers the spec's by-name rule picks.
func TestPaymentByNameModeEquivalence(t *testing.T) {
	const txns = 120
	var states []map[string][3]float64
	for _, withDORA := range []bool{false, true} {
		d, e, sys := newLoaded(t, withDORA)
		d.ByNamePercent = 100
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < txns; i++ {
			err := runKind(d, e, sys, Payment, rng, 0)
			if err != nil && !errors.Is(err, workload.ErrAborted) {
				t.Fatalf("dora=%v payment %d: %v", withDORA, i, err)
			}
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
			t.Fatalf("customer %s diverged: conventional %v, DORA %v", k, v, states[1][k])
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
				t.Fatalf("dora=%v: read-only OrderStatus mutated customer %s: %v -> %v", withDORA, k, v, after[k])
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
