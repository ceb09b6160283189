package dora

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/storage"
)

// applyMove mirrors what MoveBoundary does to the boundary positions, letting
// the pure-logic tests iterate the planner over synthetic load vectors
// without any executors or goroutines.
func applyMove(boundsBk []int, m *moveProposal) {
	boundsBk[m.boundary] = m.bucket
}

// perExecutor sums a load vector over the ranges the boundaries define.
func perExecutor(ewma []float64, boundsBk []int) []float64 {
	out := make([]float64, len(boundsBk)+1)
	for b, v := range ewma {
		e := 0
		for e < len(boundsBk) && b >= boundsBk[e] {
			e++
		}
		out[e] += v
	}
	return out
}

func testBalancerCfg() BalancerConfig {
	return BalancerConfig{Threshold: 1.5, MinActions: 10, Alpha: 1, Cooldown: 2}.withDefaults()
}

func TestPlanMoveDeadBand(t *testing.T) {
	cfg := testBalancerCfg()
	cases := []struct {
		name string
		ewma []float64
		bk   []int
	}{
		{"uniform", []float64{25, 25, 25, 25, 25, 25, 25, 25}, []int{2, 4, 6}},
		{"mild skew inside band", []float64{30, 30, 25, 25, 20, 20, 25, 25}, []int{2, 4, 6}},
		// max/mean = 1.4 with threshold 1.5: still inside the dead band.
		{"at the edge", []float64{55, 50, 35, 30, 35, 30, 35, 30}, []int{2, 4, 6}},
	}
	for _, tc := range cases {
		if m, _ := planMove(tc.ewma, tc.bk, cfg); m != nil {
			t.Errorf("%s: moved boundary %d to bucket %d inside the dead band", tc.name, m.boundary, m.bucket)
		}
	}
}

func TestPlanMoveNoiseFloor(t *testing.T) {
	cfg := testBalancerCfg()
	// Extreme skew but almost no traffic: below MinActions the signal is
	// noise and the planner must hold still.
	ewma := []float64{8, 0, 0, 0, 0, 0, 0, 0}
	if m, _ := planMove(ewma, []int{2, 4, 6}, cfg); m != nil {
		t.Fatalf("moved on %v despite total below the noise floor", ewma)
	}
	// The same shape above the floor moves.
	ewma = []float64{80, 0, 0, 0, 0, 0, 0, 0}
	if m, _ := planMove(ewma, []int{2, 4, 6}, cfg); m == nil {
		t.Fatal("no move despite extreme skew above the noise floor")
	}
}

// TestPlanMoveConverges iterates plan+apply over static synthetic load
// vectors until the planner holds still, asserting it lands on a balanced
// split in a bounded number of moves and never oscillates afterwards.
func TestPlanMoveConverges(t *testing.T) {
	cfg := testBalancerCfg()
	cases := []struct {
		name     string
		ewma     []float64
		bk       []int
		maxMoves int
	}{
		{
			// A hot-warehouse TPC-C shape: 16 warehouses, the last 4 hot with
			// 90% of the traffic, one bucket per warehouse.
			name: "hot tail quarter",
			ewma: []float64{
				0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83,
				22.5, 22.5, 22.5, 22.5,
			},
			bk:       []int{4, 8, 12},
			maxMoves: 6,
		},
		{
			name: "hot head quarter",
			ewma: []float64{
				22.5, 22.5, 22.5, 22.5,
				0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83, 0.83,
			},
			bk:       []int{4, 8, 12},
			maxMoves: 6,
		},
		{
			name:     "hot middle",
			ewma:     []float64{1, 1, 1, 1, 1, 40, 40, 40, 40, 1, 1, 1, 1, 1, 1, 1},
			bk:       []int{4, 8, 12},
			maxMoves: 8,
		},
		{
			name:     "single hot bucket is inherently unsplittable but must settle",
			ewma:     []float64{1, 1, 1, 1, 1, 1, 1, 100},
			bk:       []int{2, 4, 6},
			maxMoves: 6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bk := append([]int(nil), tc.bk...)
			moves := 0
			for {
				m, _ := planMove(tc.ewma, bk, cfg)
				if m == nil {
					break
				}
				applyMove(bk, m)
				moves++
				if moves > tc.maxMoves {
					t.Fatalf("no convergence after %d moves, bounds now %v", moves, bk)
				}
			}
			// Once settled, it must stay settled: ten more evaluations
			// propose nothing (no thrashing around the fixed point).
			for i := 0; i < 10; i++ {
				if m, _ := planMove(tc.ewma, bk, cfg); m != nil {
					t.Fatalf("planner thrashes after convergence: wants %v from %v", m, bk)
				}
			}
			loads := perExecutor(tc.ewma, bk)
			total, max := 0.0, 0.0
			for _, l := range loads {
				total += l
				if l > max {
					max = l
				}
			}
			imbalance := max / (total / float64(len(loads)))
			// A single unsplittable hot bucket cannot get below max/mean = n *
			// hot/total; everything else must end inside the dead band.
			if tc.name != "single hot bucket is inherently unsplittable but must settle" &&
				imbalance >= cfg.Threshold {
				t.Fatalf("converged at imbalance %.2f (loads %v, bounds %v)", imbalance, loads, bk)
			}
		})
	}
}

func TestObserveDecays(t *testing.T) {
	ewma := []float64{100, 0}
	observe(ewma, []uint64{0, 40}, 0.5)
	if ewma[0] != 50 || ewma[1] != 20 {
		t.Fatalf("ewma = %v, want [50 20]", ewma)
	}
	observe(ewma, []uint64{0, 0}, 0.5)
	if ewma[0] != 25 || ewma[1] != 10 {
		t.Fatalf("ewma = %v after empty tick, want [25 10]", ewma)
	}
}

// feedHistogram writes a synthetic per-key load into a table's histogram, as
// if executors had drained those actions.
func feedHistogram(t *testing.T, sys *System, table string, counts map[int64]uint64) {
	t.Helper()
	p := sys.PartitionManager().lookup(table)
	if p == nil || p.hist == nil {
		t.Fatalf("table %q has no load histogram", table)
	}
	for k, n := range counts {
		p.hist.buckets[p.hist.bucketOf(k)].Add(n)
	}
}

// TestBalancerTickHysteresisAndCooldown drives the control loop tick by tick
// with synthetic load vectors and an injected clock: a skewed signal moves a
// boundary exactly once, the cool-down blocks further moves while it lasts,
// and a signal inside the dead band never moves at all.
func TestBalancerTickHysteresisAndCooldown(t *testing.T) {
	sys, _ := newBankSystem(t, 4) // keys [0,99], boundaries 25/50/75
	b := newBalancer(sys.PartitionManager(), BalancerConfig{
		Threshold: 1.5, MinActions: 10, Alpha: 1, Cooldown: 3,
	})
	fake := time.Unix(1000, 0)
	b.now = func() time.Time { return fake }

	// Dead band: mild skew, max/mean < 1.5 -> no moves, ever.
	for i := 0; i < 5; i++ {
		feedHistogram(t, sys, "accounts", map[int64]uint64{10: 30, 35: 25, 60: 20, 85: 25})
		b.Tick()
	}
	if n := b.EventCount(); n != 0 {
		t.Fatalf("balancer moved %d times inside the dead band", n)
	}

	// Skew: everything lands on executor 0. One tick moves one boundary.
	feedHistogram(t, sys, "accounts", map[int64]uint64{5: 100, 15: 100})
	b.Tick()
	events := b.Events()
	if len(events) != 1 {
		t.Fatalf("got %d events after skewed tick, want 1", len(events))
	}
	if events[0].Table != "accounts" || events[0].Imbalance < 1.5 {
		t.Fatalf("unexpected event %+v", events[0])
	}
	if !events[0].When.Equal(fake) {
		t.Fatalf("event timestamp %v, want injected clock %v", events[0].When, fake)
	}
	if sys.Stats().BoundaryMoves != 1 {
		t.Fatalf("Stats.BoundaryMoves = %d, want 1", sys.Stats().BoundaryMoves)
	}

	// Cool-down: the same skewed signal may not move again for 3 ticks.
	for i := 0; i < 3; i++ {
		feedHistogram(t, sys, "accounts", map[int64]uint64{5: 100, 15: 100})
		b.Tick()
		if n := b.EventCount(); n != 1 {
			t.Fatalf("move %d applied during cool-down tick %d", n, i)
		}
	}
	// Cool-down over: the still-skewed signal moves again.
	feedHistogram(t, sys, "accounts", map[int64]uint64{5: 100, 15: 100})
	b.Tick()
	if n := b.EventCount(); n != 2 {
		t.Fatalf("got %d events after cool-down expired, want 2", n)
	}
}

// TestBalancerLiveRebalancesSkew runs the real control loop against live
// traffic: four executors, every transaction hitting the first quarter of the
// key space. The balancer must shrink executor 0's dataset (at least one
// boundary move) and the system must keep committing correctly throughout.
func TestBalancerLiveRebalancesSkew(t *testing.T) {
	e := newBankEngine(t)
	sys := NewSystem(e, Config{
		TxnTimeout: 5 * time.Second,
		Balancer:   &BalancerConfig{Interval: 2 * time.Millisecond, Threshold: 1.3, MinActions: 4, Cooldown: 1},
	})
	defer sys.Stop()
	if err := sys.BindTableInts("accounts", 0, 99, 4); err != nil {
		t.Fatal(err)
	}
	loadAccounts(t, e, 100, 1, 0)

	deadline := time.Now().Add(10 * time.Second)
	committed := 0
	for sys.Balancer().EventCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("balancer made no move under sustained skew (moves: %d)", sys.Stats().BoundaryMoves)
		}
		for i := int64(0); i < 25; i++ {
			acct := i
			tx := sys.NewTransaction()
			tx.Add(0, &Action{Table: "accounts", Key: key(acct), Mode: Exclusive,
				Work: func(s *Scope) error {
					return s.Update("accounts", accountPK(acct, 0), func(tu storage.Tuple) (storage.Tuple, error) {
						tu[3] = storage.FloatValue(tu[3].Float + 1)
						return tu, nil
					})
				}})
			if err := tx.Run(); err != nil {
				t.Fatalf("txn during rebalancing: %v", err)
			}
			committed++
		}
	}
	// Quiesce the loop so the counters are stable for the checks below.
	sys.Balancer().Stop()
	if sys.Stats().BoundaryMoves == 0 {
		t.Fatal("events recorded but no boundary moves counted")
	}
	// The moved boundary shows up in the routing rule: executor 0 no longer
	// owns the whole hot quarter.
	b0, ok := decodeIntKey(sys.RoutingBoundaries("accounts")[0])
	if !ok {
		t.Fatal("boundary left the integer plane")
	}
	if b0 >= 25 {
		t.Fatalf("first boundary still at %d after rebalancing, want < 25", b0)
	}
	if sys.Stats().PartitionVersion == 0 {
		t.Fatal("partition version not bumped")
	}
}

// TestBalancerLiveHoldsUnderUniformLoad is the hysteresis control for the
// live loop: two clients update uniformly random accounts for four 150 ms
// windows while the balancer ticks every 20 ms. Without skew it may make at
// most one spurious boundary move.
func TestBalancerLiveHoldsUnderUniformLoad(t *testing.T) {
	e := newBankEngine(t)
	sys := NewSystem(e, Config{
		TxnTimeout: 5 * time.Second,
		Balancer:   &BalancerConfig{Interval: 20 * time.Millisecond, Threshold: 1.4, Alpha: 0.4, Cooldown: 2},
	})
	defer sys.Stop()
	if err := sys.BindTableInts("accounts", 0, 99, 4); err != nil {
		t.Fatal(err)
	}
	loadAccounts(t, e, 100, 1, 0)

	const windows, window = 4, 150 * time.Millisecond
	stop := time.Now().Add(windows * window)
	var committed atomic.Int64
	var wg sync.WaitGroup
	for c := int64(0); c < 2; c++ {
		wg.Add(1)
		go func(c int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(c + 1))
			for time.Now().Before(stop) {
				acct := rng.Int63n(100)
				tx := sys.NewTransaction()
				tx.Add(0, &Action{Table: "accounts", Key: key(acct), Mode: Exclusive,
					Work: func(s *Scope) error {
						return s.Update("accounts", accountPK(acct, 0), func(tu storage.Tuple) (storage.Tuple, error) {
							tu[3] = storage.FloatValue(tu[3].Float + 1)
							return tu, nil
						})
					}})
				if err := tx.Run(); err != nil {
					t.Errorf("txn under uniform load: %v", err)
					return
				}
				committed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	sys.Balancer().Stop()
	if committed.Load() == 0 {
		t.Fatal("nothing committed")
	}
	if moves := sys.Stats().BoundaryMoves; moves > 1 {
		t.Fatalf("balancer made %d boundary moves on a uniform load (%d txns), want at most 1", moves, committed.Load())
	}
}
