package wal

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dora/internal/storage"
)

// Concurrent appends must assign gap-free LSNs under heavy concurrency: the
// log is a byte stream, so sorting the assigned LSNs must reproduce it exactly
// — every record starts where the previous one ended, with no hole and no
// overlap, and the encoded stream must decode back to every record.
func TestConcurrentAppendLSNsGapFree(t *testing.T) {
	m := NewManager()
	defer m.Close()

	const workers = 8
	const perWorker = 400
	type entry struct {
		lsn  LSN
		size int
	}
	results := make([][]entry, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Varying payload sizes exercise the LSN arithmetic.
				r := &Record{
					Txn:   TxnID(w*perWorker + i + 1),
					Type:  RecUpdate,
					RID:   storage.RID{Page: storage.PageID(w), Slot: uint16(i)},
					After: []byte(fmt.Sprintf("w%d-i%d-%s", w, i, "xxxxxxxxxxxxxxxx"[:i%16])),
				}
				size := r.encodedSize()
				lsn, err := m.Append(r)
				if err != nil {
					t.Errorf("Append(w=%d,i=%d): %v", w, i, err)
					return
				}
				results[w] = append(results[w], entry{lsn: lsn, size: size})
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var all []entry
	for _, rs := range results {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
	expect := LSN(1)
	for i, e := range all {
		if e.lsn != expect {
			t.Fatalf("record %d at LSN %d, want %d (gap or overlap)", i, e.lsn, expect)
		}
		expect += LSN(e.size)
	}
	if got := m.CurrentLSN(); got != expect {
		t.Fatalf("CurrentLSN = %d, want %d", got, expect)
	}
	if got := m.Appends(); got != workers*perWorker {
		t.Fatalf("Appends = %d, want %d", got, workers*perWorker)
	}

	// Every encode landed intact: the stream decodes to exactly the appended
	// records, in LSN order, each carrying its assigned LSN.
	recs, err := m.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(recs) != workers*perWorker {
		t.Fatalf("decoded %d records, want %d", len(recs), workers*perWorker)
	}
	for i, r := range recs {
		if r.LSN != all[i].lsn {
			t.Fatalf("decoded record %d has LSN %d, want %d", i, r.LSN, all[i].lsn)
		}
	}
}

// appendTxnRecords writes one transaction's deterministic record sequence,
// threading the PrevLSN chain the way the engine does. Committed transactions
// get COMMIT+END records; losers just stop.
func appendTxnRecords(t *testing.T, m *Manager, txn int, ops int, commit bool) {
	t.Helper()
	id := TxnID(txn)
	last, err := m.Append(&Record{Txn: id, Type: RecBegin})
	if err != nil {
		t.Errorf("txn %d BEGIN: %v", txn, err)
		return
	}
	for i := 0; i < ops; i++ {
		r := &Record{
			Txn:     id,
			PrevLSN: last,
			TableID: 1,
			RID:     storage.RID{Page: storage.PageID(txn), Slot: uint16(i)},
		}
		if i%3 == 2 {
			r.Type = RecUpdate
			r.Before = []byte(fmt.Sprintf("t%d-s%d-v0", txn, i-1))
			r.After = []byte(fmt.Sprintf("t%d-s%d-v1", txn, i))
		} else {
			r.Type = RecInsert
			r.After = []byte(fmt.Sprintf("t%d-s%d-v0", txn, i))
		}
		if last, err = m.Append(r); err != nil {
			t.Errorf("txn %d op %d: %v", txn, i, err)
			return
		}
	}
	if commit {
		if last, err = m.Append(&Record{Txn: id, PrevLSN: last, Type: RecCommit}); err != nil {
			t.Errorf("txn %d COMMIT: %v", txn, err)
			return
		}
		if _, err = m.Append(&Record{Txn: id, PrevLSN: last, Type: RecEnd}); err != nil {
			t.Errorf("txn %d END: %v", txn, err)
		}
	}
}

// A log written by concurrent appenders must recover to the same image as the
// same transactions appended serially: commit/abort outcomes and per-key
// values are interleaving-independent (each transaction touches its own
// keys), so any divergence means the concurrent append path corrupted chains
// or record contents.
func TestConcurrentLogRecoversSameImageAsSerial(t *testing.T) {
	const txns = 12
	const ops = 15
	committed := func(txn int) bool { return txn%2 == 0 }

	recoverImage := func(m *Manager) (map[string][]byte, RecoveryStats) {
		t.Helper()
		m.FlushAll()
		a := newMemApplier()
		stats, err := Recover(m, a)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		return a.data, stats
	}

	serial := NewManager()
	defer serial.Close()
	for txn := 1; txn <= txns; txn++ {
		appendTxnRecords(t, serial, txn, ops, committed(txn))
	}
	wantData, wantStats := recoverImage(serial)

	concurrent := NewManager()
	defer concurrent.Close()
	var wg sync.WaitGroup
	for txn := 1; txn <= txns; txn++ {
		wg.Add(1)
		go func(txn int) {
			defer wg.Done()
			appendTxnRecords(t, concurrent, txn, ops, committed(txn))
		}(txn)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	gotData, gotStats := recoverImage(concurrent)

	if wantStats.Winners != gotStats.Winners || wantStats.Losers != gotStats.Losers {
		t.Fatalf("winners/losers = %d/%d concurrent vs %d/%d serial",
			gotStats.Winners, gotStats.Losers, wantStats.Winners, wantStats.Losers)
	}
	if !reflect.DeepEqual(wantData, gotData) {
		t.Fatalf("recovered images differ:\nconcurrent: %d keys\nserial: %d keys",
			len(gotData), len(wantData))
	}
}

// Interleaved BEGIN/END traffic must keep the checkpoint active set exact: at
// any cut, every registered transaction is live (no END below the cut), and
// after all transactions end the set is empty. This races Append's
// registration (held across the LSN reservation) against CheckpointCut.
func TestConcurrentCheckpointCutSeesConsistentActiveSet(t *testing.T) {
	m := NewManager()
	defer m.Close()

	const workers = 6
	const perWorker = 200
	stop := make(chan struct{})
	var cuts sync.WaitGroup
	cuts.Add(1)
	go func() {
		defer cuts.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cut, low, active := m.CheckpointCut()
			if low > cut {
				t.Errorf("low %d above cut %d", low, cut)
				return
			}
			for txn, first := range active {
				if first > cut {
					t.Errorf("active txn %d first LSN %d above cut %d", txn, first, cut)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := TxnID(w*perWorker + i + 1)
				last, err := m.Append(&Record{Txn: id, Type: RecBegin})
				if err != nil {
					t.Errorf("BEGIN: %v", err)
					return
				}
				if _, err := m.Append(&Record{Txn: id, PrevLSN: last, Type: RecEnd}); err != nil {
					t.Errorf("END: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	cuts.Wait()
	if t.Failed() {
		return
	}
	_, low, active := m.CheckpointCut()
	if len(active) != 0 {
		t.Fatalf("active set after all ENDs: %v, want empty", active)
	}
	if cut := m.CurrentLSN(); low != cut {
		t.Fatalf("idle horizon: low=%d cut=%d, want equal", low, cut)
	}
}
