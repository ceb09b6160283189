package tpcc

import (
	"math/rand"
	"testing"

	"dora/internal/engine"
	"dora/internal/storage"
	"dora/internal/wal"
)

// A transaction logs its BEGIN with its first change, not when it starts.
// One that starts before a fuzzy checkpoint cut and first writes after it is
// therefore not in the cut's active set, and all of its records sit above
// the cut. Recovery from that checkpoint must still roll it back when the
// crash comes before its commit is durable, and replay it when the crash
// comes after. The transaction moves Payment's money (W_YTD and D_YTD by
// the same amount), so the §3.3.2 checker holds in both cases.
func TestLazyBeginStraddlingCheckpointCut(t *testing.T) {
	for _, committed := range []bool{false, true} {
		name := "crash-before-commit"
		if committed {
			name = "crash-after-commit"
		}
		t.Run(name, func(t *testing.T) { lazyBeginCrash(t, committed) })
	}
}

func lazyBeginCrash(t *testing.T, committed bool) {
	const amount = 4321.0
	dir := t.TempDir()
	d, e, _ := newCkptBacked(t, dir)
	defer e.Close()
	runMix(t, d, e, rand.New(rand.NewSource(5)), 50)
	wYTD := func(e *engine.Engine, txn *engine.Txn) float64 {
		t.Helper()
		tu, err := e.Probe(txn, "WAREHOUSE", ik(1), engine.Conventional())
		if err != nil {
			t.Fatalf("probe WAREHOUSE: %v", err)
		}
		return tu[3].Float
	}

	txn := e.Begin()
	before := wYTD(e, txn)
	st, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if st.LowLSN != st.CutLSN {
		t.Fatalf("a transaction that has not written is in the cut's active set: low %d, cut %d", st.LowLSN, st.CutLSN)
	}
	addYTD := func(table string, pk storage.Key, col int) {
		t.Helper()
		if err := e.Update(txn, table, pk, engine.Conventional(), func(tu storage.Tuple) (storage.Tuple, error) {
			tu[col] = storage.FloatValue(tu[col].Float + amount)
			return tu, nil
		}); err != nil {
			t.Fatalf("update %s: %v", table, err)
		}
	}
	addYTD("WAREHOUSE", ik(1), 3)
	addYTD("DISTRICT", ik(1, 1), 4)
	if committed {
		if err := e.Commit(txn); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	e.Log().FlushAll()
	recs, err := e.Log().Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	for _, r := range recs {
		if r.Txn == wal.TxnID(txn.ID()) && r.LSN < st.CutLSN {
			t.Fatalf("record %v of the straddling transaction at LSN %d is below the cut %d", r.Type, r.LSN, st.CutLSN)
		}
	}

	d2, e2, stats := newCkptBacked(t, snapshotDir(t, dir))
	defer e2.Close()
	if stats.CheckpointLSN != st.CutLSN {
		t.Fatalf("recovery started from cut %d, want %d", stats.CheckpointLSN, st.CutLSN)
	}
	if !committed && stats.Losers == 0 {
		t.Fatal("the uncommitted straddling transaction was not rolled back")
	}
	if err := d2.Check(e2); err != nil {
		t.Fatalf("§3.3.2 checker after recovery: %v", err)
	}
	check := e2.Begin()
	got := wYTD(e2, check)
	if err := e2.Commit(check); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	want := before
	if committed {
		want += amount
	}
	if got != want {
		t.Fatalf("recovered W_YTD %v, want %v", got, want)
	}
}
