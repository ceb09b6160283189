package tpcb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/workload"
)

func newLoaded(t testing.TB, branches int64, withDORA bool) (*Driver, *engine.Engine, *dora.System) {
	t.Helper()
	d := New(branches)
	d.AccountsPerBranch = 50
	e := engine.New(engine.Config{BufferPoolFrames: 1024})
	// Close the engine's background pruner so repeated runs (-count) do not
	// pile up pruners that starve the next run's CPU.
	t.Cleanup(func() { e.Close() })
	if err := d.CreateTables(e); err != nil {
		t.Fatalf("CreateTables: %v", err)
	}
	if err := d.Load(e, rand.New(rand.NewSource(1))); err != nil {
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
	drv, err := workload.New("tpcb")
	if err != nil {
		t.Fatalf("workload.New: %v", err)
	}
	if drv.Name() != "TPC-B" {
		t.Fatalf("Name = %q", drv.Name())
	}
	if len(drv.Mix()) != 1 || drv.Mix()[0].Name != AccountUpdate {
		t.Fatalf("Mix = %v", drv.Mix())
	}
}

func TestLoadCardinalities(t *testing.T) {
	d, e, _ := newLoaded(t, 3, false)
	expect := map[string]int{
		"BRANCH":  int(d.Branches),
		"TELLER":  int(d.Branches) * TellersPerBranch,
		"ACCOUNT": int(d.Branches) * int(d.AccountsPerBranch),
		"HISTORY": 0,
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
}

// balanceInvariant checks TPC-B's consistency condition: the sum of account
// balances equals the sum of teller balances equals the sum of branch
// balances, and each equals the sum of history deltas.
func balanceInvariant(t *testing.T, e *engine.Engine) {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	sum := func(table string, col int) float64 {
		var s float64
		e.ScanTable(txn, table, engine.Conventional(), func(tu storage.Tuple) bool {
			s += tu[col].Float
			return true
		})
		return s
	}
	branches := sum("BRANCH", 1)
	tellers := sum("TELLER", 2)
	accounts := sum("ACCOUNT", 2)
	history := sum("HISTORY", 4)
	for name, v := range map[string]float64{"tellers": tellers, "accounts": accounts, "history": history} {
		if math.Abs(v-branches) > 0.01 {
			t.Fatalf("balance invariant violated: branches=%v %s=%v", branches, name, v)
		}
	}
}

func TestBaselineAccountUpdates(t *testing.T) {
	d, e, _ := newLoaded(t, 3, false)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		if err := d.RunBaseline(e, AccountUpdate, rng, 0); err != nil && !errors.Is(err, workload.ErrAborted) {
			t.Fatalf("RunBaseline: %v", err)
		}
	}
	hist, _ := e.Table("HISTORY")
	if hist.NumRecords() == 0 {
		t.Fatal("no history rows written")
	}
	balanceInvariant(t, e)
	if err := d.RunBaseline(e, "Bogus", rng, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDORAAccountUpdates(t *testing.T) {
	d, e, sys := newLoaded(t, 3, true)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if err := d.RunDORA(sys, AccountUpdate, rng, 0); err != nil && !errors.Is(err, workload.ErrAborted) {
			t.Fatalf("RunDORA: %v", err)
		}
	}
	balanceInvariant(t, e)
	if err := d.RunDORA(sys, "Bogus", rng, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// tableContents lists every row of the TPC-B tables in primary-key order.
func tableContents(t *testing.T, e *engine.Engine) map[string][]string {
	t.Helper()
	txn := e.Begin()
	defer e.Commit(txn)
	out := map[string][]string{}
	for _, table := range []string{"BRANCH", "TELLER", "ACCOUNT", "HISTORY"} {
		if err := e.ScanTable(txn, table, engine.Conventional(), func(tu storage.Tuple) bool {
			out[table] = append(out[table], fmt.Sprint(tu))
			return true
		}); err != nil {
			t.Fatalf("scan %s: %v", table, err)
		}
	}
	return out
}

// TestBaselineAndDORAProduceSameEffects runs one seeded AccountUpdate sequence
// on two identically loaded databases, thread-to-transaction on one and
// through DORA on the other. Every table's contents must match, and every
// account, teller and branch balance must equal the sum of the deltas the
// test itself draws for that row from the same seed.
func TestBaselineAndDORAProduceSameEffects(t *testing.T) {
	const txns, seed = 300, 11
	// The expected balances, keyed by table and primary key.
	want := map[string]float64{}
	gen := New(3)
	gen.AccountsPerBranch = 50 // as newLoaded
	rng := rand.New(rand.NewSource(seed))
	for j := 0; j < txns; j++ {
		in := gen.genInput(rng)
		want[fmt.Sprint("ACCOUNT", in.acctB, in.account)] += in.delta
		want[fmt.Sprint("TELLER", in.branch, in.teller)] += in.delta
		want[fmt.Sprint("BRANCH", in.branch)] += in.delta
	}
	var contents [2]map[string][]string
	for i, withDORA := range []bool{false, true} {
		d, e, sys := newLoaded(t, 3, withDORA)
		rng := rand.New(rand.NewSource(seed))
		for j := 0; j < txns; j++ {
			var err error
			if withDORA {
				err = d.RunDORA(sys, AccountUpdate, rng, 0)
			} else {
				err = d.RunBaseline(e, AccountUpdate, rng, 0)
			}
			if err != nil {
				t.Fatalf("dora=%v AccountUpdate #%d: %v", withDORA, j, err)
			}
		}
		contents[i] = tableContents(t, e)
		txn := e.Begin()
		for _, table := range []string{"ACCOUNT", "TELLER", "BRANCH"} {
			if err := e.ScanTable(txn, table, engine.Conventional(), func(tu storage.Tuple) bool {
				k := fmt.Sprint(table, tu[0].Int, tu[1].Int)
				if table == "BRANCH" {
					k = fmt.Sprint(table, tu[0].Int)
				}
				if got := tu[len(tu)-1].Float; math.Abs(got-want[k]) > 0.005 {
					t.Errorf("dora=%v %s: balance %.2f, want %.2f", withDORA, k, got, want[k])
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		e.Commit(txn)
	}
	for table, rows := range contents[0] {
		if fmt.Sprint(rows) != fmt.Sprint(contents[1][table]) {
			t.Fatalf("%s differs:\nconventional %v\nDORA         %v", table, rows, contents[1][table])
		}
	}
	if len(contents[0]["HISTORY"]) != txns {
		t.Fatalf("%d HISTORY rows, want %d", len(contents[0]["HISTORY"]), txns)
	}
}

// Both systems share one engine and one database, but they take turns: first
// the DORA workers run concurrently, then the Baseline workers do, and the
// TPC-B condition is checked after each. They must not run at the same time.
// DORA updates take no centralized lock by design (engine.DORARead is NoLock,
// paper §4.2.1), so a Baseline and a DORA transaction updating the same
// BRANCH row would race and lose an update.
func TestConcurrentMixedSystemsPreserveInvariant(t *testing.T) {
	d, e, sys := newLoaded(t, 2, true)
	runWorkers := func(run func(rng *rand.Rand, seed int) error) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(seed)))
				for i := 0; i < 50; i++ {
					if err := run(rng, seed); err != nil && !errors.Is(err, workload.ErrAborted) {
						t.Errorf("worker %d: %v", seed, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		balanceInvariant(t, e)
	}
	runWorkers(func(rng *rand.Rand, seed int) error { return d.RunDORA(sys, AccountUpdate, rng, seed) })
	runWorkers(func(rng *rand.Rand, seed int) error { return d.RunBaseline(e, AccountUpdate, rng, seed) })
}

func TestRemoteAccountFraction(t *testing.T) {
	d := New(5)
	rng := rand.New(rand.NewSource(4))
	remote := 0
	const n = 20000
	for i := 0; i < n; i++ {
		in := d.genInput(rng)
		if in.acctB != in.branch {
			remote++
		}
	}
	frac := float64(remote) / n
	if frac < 0.10 || frac > 0.20 {
		t.Fatalf("remote account fraction = %.3f, want about 0.15", frac)
	}
}

func TestCheckBalanceConservation(t *testing.T) {
	d, e, sys := newLoaded(t, 4, true)
	if err := d.Check(e); err != nil {
		t.Fatalf("freshly loaded database fails checker: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 150; i++ {
		var err error
		if i%2 == 0 {
			err = d.RunDORA(sys, AccountUpdate, rng, 0)
		} else {
			err = d.RunBaseline(e, AccountUpdate, rng, 0)
		}
		if err != nil && !errors.Is(err, workload.ErrAborted) {
			t.Fatalf("AccountUpdate: %v", err)
		}
	}
	if err := d.Check(e); err != nil {
		t.Fatalf("conservation violated after mixed run: %v", err)
	}
	// Skim a branch: Σ BRANCH no longer matches Σ HISTORY.
	txn := e.Begin()
	if err := e.Update(txn, "BRANCH", bk(1), engine.Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
		tu[1] = storage.FloatValue(tu[1].Float + 500)
		return tu, nil
	}); err != nil {
		t.Fatal(err)
	}
	e.Commit(txn)
	if err := d.Check(e); err == nil {
		t.Fatal("checker missed a skimmed branch balance")
	}
}
