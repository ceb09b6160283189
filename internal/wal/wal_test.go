package wal

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dora/internal/storage"
)

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	in := &Record{
		LSN:      123,
		PrevLSN:  45,
		Txn:      7,
		Type:     RecUpdate,
		TableID:  3,
		RID:      storage.RID{Page: 9, Slot: 2},
		Before:   []byte("before image"),
		After:    []byte("after image"),
		UndoNext: 44,
	}
	enc := in.encode(nil)
	out, n, err := decodeRecord(enc)
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d bytes, want %d", n, len(enc))
	}
	if out.LSN != in.LSN || out.Txn != in.Txn || out.Type != in.Type ||
		out.TableID != in.TableID || out.RID != in.RID ||
		string(out.Before) != string(in.Before) || string(out.After) != string(in.After) ||
		out.UndoNext != in.UndoNext || out.PrevLSN != in.PrevLSN {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestRecordEncodeDecodeCheckpoint(t *testing.T) {
	in := &Record{
		LSN:  10,
		Type: RecCheckpoint,
		ActiveTxns: map[TxnID]LSN{
			3: 100,
			9: 250,
		},
	}
	out, _, err := decodeRecord(in.encode(nil))
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if len(out.ActiveTxns) != 2 || out.ActiveTxns[3] != 100 || out.ActiveTxns[9] != 250 {
		t.Fatalf("checkpoint ATT mismatch: %v", out.ActiveTxns)
	}
}

func TestRecordDecodeTruncated(t *testing.T) {
	in := &Record{Txn: 1, Type: RecInsert, After: []byte("payload")}
	enc := in.encode(nil)
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := decodeRecord(enc[:cut]); err == nil {
			t.Fatalf("truncated record of %d bytes decoded", cut)
		}
	}
}

func TestRecordEncodeProperty(t *testing.T) {
	f := func(txn uint64, table uint32, page uint32, slot uint16, before, after []byte) bool {
		in := &Record{
			Txn:     TxnID(txn),
			Type:    RecUpdate,
			TableID: table,
			RID:     storage.RID{Page: storage.PageID(page), Slot: slot},
			Before:  before,
			After:   after,
		}
		out, _, err := decodeRecord(in.encode(nil))
		if err != nil {
			return false
		}
		return out.Txn == in.Txn && out.TableID == in.TableID && out.RID == in.RID &&
			string(out.Before) == string(in.Before) && string(out.After) == string(in.After)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mustAppend(t testing.TB, m *Manager, r *Record) LSN {
	t.Helper()
	lsn, err := m.Append(r)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return lsn
}

func TestManagerAppendAssignsMonotonicLSNs(t *testing.T) {
	m := NewManager()
	var prev LSN
	for i := 0; i < 100; i++ {
		lsn := mustAppend(t, m, &Record{Txn: TxnID(i%5 + 1), Type: RecUpdate, After: []byte("x")})
		if lsn <= prev {
			t.Fatalf("LSN %d not greater than previous %d", lsn, prev)
		}
		prev = lsn
	}
	if m.Appends() != 100 {
		t.Fatalf("Appends = %d, want 100", m.Appends())
	}
}

func TestManagerPreservesCallerPrevLSNChain(t *testing.T) {
	// The manager does not maintain PrevLSN chains — callers (the engine's
	// Txn) own them. The manager must write exactly the chain state the
	// records carry, interleaved transactions and all.
	m := NewManager()
	l1 := mustAppend(t, m, &Record{Txn: 1, Type: RecBegin})
	l2 := mustAppend(t, m, &Record{Txn: 1, PrevLSN: l1, Type: RecInsert, After: []byte("a")})
	l3 := mustAppend(t, m, &Record{Txn: 2, Type: RecBegin})
	l4 := mustAppend(t, m, &Record{Txn: 1, PrevLSN: l2, Type: RecUpdate, After: []byte("b")})

	recs, err := m.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if recs[1].PrevLSN != l1 {
		t.Fatalf("record 2 PrevLSN = %d, want %d", recs[1].PrevLSN, l1)
	}
	if recs[2].PrevLSN != NilLSN {
		t.Fatalf("txn 2 BEGIN PrevLSN = %d, want NilLSN", recs[2].PrevLSN)
	}
	if recs[3].PrevLSN != l2 {
		t.Fatalf("record 4 PrevLSN = %d, want %d", recs[3].PrevLSN, l2)
	}
	if recs[3].LSN != l4 || recs[2].LSN != l3 {
		t.Fatalf("stored LSNs %d,%d do not match assigned %d,%d", recs[2].LSN, recs[3].LSN, l3, l4)
	}
}

func TestManagerFlushMakesRecordsDurable(t *testing.T) {
	m := NewManager()
	m.Append(&Record{Txn: 1, Type: RecBegin})
	commitLSN := mustAppend(t, m, &Record{Txn: 1, Type: RecCommit})

	durable, _ := m.DurableRecords()
	if len(durable) != 0 {
		t.Fatalf("before flush %d durable records", len(durable))
	}
	m.Flush(commitLSN)
	durable, _ = m.DurableRecords()
	if len(durable) != 2 {
		t.Fatalf("after flush %d durable records, want 2", len(durable))
	}
	if m.Flushes() != 1 {
		t.Fatalf("Flushes = %d, want 1", m.Flushes())
	}
	// Flushing an already-durable LSN is a no-op.
	m.Flush(commitLSN)
	if m.Flushes() != 1 {
		t.Fatalf("redundant flush performed a device write")
	}
}

func TestManagerGroupCommit(t *testing.T) {
	m := NewManager()
	var lsns []LSN
	for i := 1; i <= 10; i++ {
		lsns = append(lsns, mustAppend(t, m, &Record{Txn: TxnID(i), Type: RecCommit}))
	}
	// One flush of the latest LSN makes all ten commits durable.
	m.Flush(lsns[9])
	if m.Flushes() != 1 {
		t.Fatalf("Flushes = %d, want 1 (group commit)", m.Flushes())
	}
	durable, _ := m.DurableRecords()
	if len(durable) != 10 {
		t.Fatalf("durable records = %d, want 10", len(durable))
	}
}

func TestManagerRecordLookup(t *testing.T) {
	m := NewManager()
	lsn := mustAppend(t, m, &Record{Txn: 4, Type: RecInsert, After: []byte("z")})
	r, err := m.Record(lsn)
	if err != nil || r == nil || r.Txn != 4 {
		t.Fatalf("Record(%d) = %v, %v", lsn, r, err)
	}
	r, err = m.Record(lsn + 1000)
	if err != nil || r != nil {
		t.Fatalf("Record of bogus LSN = %v, %v", r, err)
	}
}

func TestManagerConcurrentAppends(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Append(&Record{Txn: TxnID(id + 1), Type: RecUpdate, After: []byte("u")})
			}
		}(g)
	}
	wg.Wait()
	m.FlushAll()
	recs, err := m.DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords: %v", err)
	}
	if len(recs) != goroutines*perG {
		t.Fatalf("decoded %d records, want %d", len(recs), goroutines*perG)
	}
	seen := map[LSN]bool{}
	for _, r := range recs {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
	}
}

// TestGroupCommitCoalescesConcurrentCommits: 8 concurrent committers share
// device writes, on the in-memory device with a modelled flush latency and on
// a file device that fsyncs every flush.
func TestGroupCommitCoalescesConcurrentCommits(t *testing.T) {
	for _, file := range []bool{false, true} {
		var m *Manager
		if file {
			m = openFileManager(t, t.TempDir(), Options{Sync: SyncOnFlush})
		} else {
			m = NewManager()
			m.SetFlushDelay(time.Millisecond)
		}
		coalesceConcurrentCommits(t, m, file)
		m.Close()
	}
}

func coalesceConcurrentCommits(t *testing.T, m *Manager, file bool) {
	t.Helper()
	const goroutines = 8
	const perG = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := m.Append(&Record{Txn: TxnID(id*perG + i + 1), Type: RecCommit})
				if err != nil {
					t.Error(err)
					return
				}
				m.Flush(lsn)
			}
		}(g)
	}
	wg.Wait()

	st := m.FlushStats()
	// A committer whose LSN was already durable when it called Flush never
	// registers a callback, so CommitsFlushed may undercount slightly.
	if st.CommitsFlushed == 0 || st.CommitsFlushed > goroutines*perG {
		t.Fatalf("file=%v: CommitsFlushed = %d, want in (0, %d]", file, st.CommitsFlushed, goroutines*perG)
	}
	if st.Flushes == 0 || st.CommitsFlushed <= st.Flushes {
		t.Fatalf("file=%v: %d commits over %d flushes, want coalescing (more commits than flushes)",
			file, st.CommitsFlushed, st.Flushes)
	}
	if st.MaxCoalesced < 2 {
		t.Fatalf("file=%v: MaxCoalesced = %d, want >= 2", file, st.MaxCoalesced)
	}
	if file && st.Syncs != st.Flushes {
		t.Fatalf("SyncOnFlush: syncs=%d flushes=%d, want one fsync per flush", st.Syncs, st.Flushes)
	}
	durable, err := m.DurableRecords()
	if err != nil {
		t.Fatalf("file=%v: DurableRecords: %v", file, err)
	}
	if len(durable) != goroutines*perG {
		t.Fatalf("file=%v: durable records = %d, want %d", file, len(durable), goroutines*perG)
	}
}

// Durable callbacks run on the flusher, after durability, one at a time and
// in LSN order — also when registered out of order, and also when the LSN was
// already durable at registration (which queues for the flusher rather than
// completing inline).
func TestOnDurableRunsOnFlusherInLSNOrder(t *testing.T) {
	m := NewManager()
	defer m.Close()
	lsn0 := mustAppend(t, m, &Record{Txn: 1, Type: RecCommit})
	entered, unblock := make(chan struct{}), make(chan struct{})
	m.OnDurable(lsn0, func() {
		close(entered)
		<-unblock
	})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("durable callback never ran")
	}
	if m.FlushedLSN() < lsn0 {
		t.Fatalf("FlushedLSN = %d in the callback, want >= %d", m.FlushedLSN(), lsn0)
	}

	// The flusher is parked in the first callback, so nothing below can run
	// until it is released: order is written only by the flusher.
	var order []LSN
	m.OnDurable(lsn0, func() { order = append(order, lsn0) })
	lsn1 := mustAppend(t, m, &Record{Txn: 2, Type: RecCommit})
	lsn2 := mustAppend(t, m, &Record{Txn: 3, Type: RecCommit})
	done := make(chan struct{})
	m.OnDurable(lsn2, func() { order = append(order, lsn2); close(done) })
	m.OnDurable(lsn1, func() { order = append(order, lsn1) })
	close(unblock)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("durable callbacks never ran")
	}
	if want := []LSN{lsn0, lsn1, lsn2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("callback order = %v, want LSN order %v", order, want)
	}
}

func TestManagerCloseDrainsAndRejectsLateAppends(t *testing.T) {
	m := NewManager()
	mustAppend(t, m, &Record{Txn: 1, Type: RecCommit})
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}

	// Close's final drain makes the pre-Close commit durable.
	durable, err := m.DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords: %v", err)
	}
	if len(durable) != 1 {
		t.Fatalf("durable records = %d, want 1", len(durable))
	}

	// A closed manager's log image is final: appends report ErrClosed
	// instead of silently mutating it, and flushing what is already durable
	// returns immediately.
	if _, err := m.Append(&Record{Txn: 2, Type: RecCommit}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Append error = %v, want ErrClosed", err)
	}
	done := make(chan struct{})
	go func() {
		m.FlushAll()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("post-Close Flush hung")
	}
	if got, _ := m.DurableRecords(); len(got) != 1 {
		t.Fatalf("durable records after rejected append = %d, want 1", len(got))
	}
}

func TestRecoverGuards(t *testing.T) {
	// Recovery over a closed manager must fail loudly: its undo pass appends
	// compensation records, which a final log image cannot accept.
	m := NewManager()
	mustAppend(t, m, &Record{Txn: 1, Type: RecBegin})
	mustAppend(t, m, &Record{Txn: 1, Type: RecInsert, TableID: 1,
		RID: storage.RID{Page: 1, Slot: 0}, After: []byte("x")})
	m.FlushAll()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := Recover(m, newMemApplier()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recover on closed manager error = %v, want ErrClosed", err)
	}

	// Two overlapping replays of one manager would interleave their CLRs;
	// the second must be rejected.
	m2 := NewManager()
	defer m2.Close()
	if err := m2.beginRecovery(); err != nil {
		t.Fatalf("beginRecovery: %v", err)
	}
	if _, err := Recover(m2, newMemApplier()); !errors.Is(err, ErrRecoveryInProgress) {
		t.Fatalf("overlapping Recover error = %v, want ErrRecoveryInProgress", err)
	}
	m2.endRecovery()
	// Sequential re-recovery (crash during recovery) stays legal.
	if _, err := Recover(m2, newMemApplier()); err != nil {
		t.Fatalf("sequential re-Recover: %v", err)
	}
}

// memApplier applies insert/delete/update records to a map keyed by
// (table, RID), mimicking a heap file for recovery tests.
type memApplier struct {
	data map[string][]byte
}

func newMemApplier() *memApplier { return &memApplier{data: map[string][]byte{}} }

func key(r *Record) string { return fmt.Sprintf("%d/%s", r.TableID, r.RID) }

func (a *memApplier) Redo(r *Record) error {
	switch r.Type {
	case RecInsert:
		a.data[key(r)] = r.After
	case RecDelete:
		delete(a.data, key(r))
	case RecUpdate:
		a.data[key(r)] = r.After
	case RecCLR:
		if r.After == nil {
			delete(a.data, key(r))
		} else {
			a.data[key(r)] = r.After
		}
	}
	return nil
}

func (a *memApplier) Undo(r *Record) error {
	switch r.Type {
	case RecInsert:
		delete(a.data, key(r))
	case RecDelete:
		a.data[key(r)] = r.Before
	case RecUpdate:
		a.data[key(r)] = r.Before
	}
	return nil
}

func TestRecoveryRedoesWinnersAndUndoesLosers(t *testing.T) {
	m := NewManager()
	rid1 := storage.RID{Page: 1, Slot: 0}
	rid2 := storage.RID{Page: 1, Slot: 1}

	// Txn 1 commits an insert of rid1.
	m.Append(&Record{Txn: 1, Type: RecBegin})
	m.Append(&Record{Txn: 1, Type: RecInsert, TableID: 1, RID: rid1, After: []byte("committed")})
	m.Append(&Record{Txn: 1, Type: RecCommit})
	m.Append(&Record{Txn: 1, Type: RecEnd})

	// Txn 2 inserts rid2 and updates rid1 but never commits (loser). The
	// caller owns the PrevLSN chain the undo walk follows.
	lb := mustAppend(t, m, &Record{Txn: 2, Type: RecBegin})
	li := mustAppend(t, m, &Record{Txn: 2, PrevLSN: lb, Type: RecInsert, TableID: 1, RID: rid2, After: []byte("uncommitted")})
	m.Append(&Record{Txn: 2, PrevLSN: li, Type: RecUpdate, TableID: 1, RID: rid1,
		Before: []byte("committed"), After: []byte("dirty")})
	m.FlushAll()

	a := newMemApplier()
	stats, err := Recover(m, a)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Winners != 1 || stats.Losers != 1 {
		t.Fatalf("winners=%d losers=%d, want 1/1", stats.Winners, stats.Losers)
	}
	if stats.Redone != 3 {
		t.Fatalf("Redone = %d, want 3", stats.Redone)
	}
	if stats.Undone != 2 {
		t.Fatalf("Undone = %d, want 2", stats.Undone)
	}
	if got := string(a.data["1/1.0"]); got != "committed" {
		t.Fatalf("rid1 = %q, want committed value restored", got)
	}
	if _, exists := a.data["1/1.0"]; !exists {
		t.Fatal("committed record lost")
	}
	if _, exists := a.data["1/1.1"]; exists {
		t.Fatal("uncommitted insert survived recovery")
	}

	// The log now contains CLRs and an END for the loser; a second recovery
	// run (crash during recovery) must be idempotent.
	a2 := newMemApplier()
	if _, err := Recover(m, a2); err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if got := string(a2.data["1/1.0"]); got != "committed" {
		t.Fatalf("after re-recovery rid1 = %q", got)
	}
	if _, exists := a2.data["1/1.1"]; exists {
		t.Fatal("uncommitted insert survived re-recovery")
	}
}

func TestRecoveryUndoesDeletes(t *testing.T) {
	m := NewManager()
	rid := storage.RID{Page: 2, Slot: 3}
	// A committed insert followed by an uncommitted delete: the record must
	// survive recovery.
	m.Append(&Record{Txn: 1, Type: RecBegin})
	m.Append(&Record{Txn: 1, Type: RecInsert, TableID: 1, RID: rid, After: []byte("keep me")})
	m.Append(&Record{Txn: 1, Type: RecCommit})
	m.Append(&Record{Txn: 1, Type: RecEnd})
	lb := mustAppend(t, m, &Record{Txn: 2, Type: RecBegin})
	m.Append(&Record{Txn: 2, PrevLSN: lb, Type: RecDelete, TableID: 1, RID: rid, Before: []byte("keep me")})
	m.FlushAll()

	a := newMemApplier()
	if _, err := Recover(m, a); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := string(a.data["1/2.3"]); got != "keep me" {
		t.Fatalf("deleted-by-loser record = %q, want restored", got)
	}
}

func TestRecoveryEmptyLog(t *testing.T) {
	m := NewManager()
	stats, err := Recover(m, newMemApplier())
	if err != nil {
		t.Fatalf("Recover on empty log: %v", err)
	}
	if stats.Analyzed != 0 || stats.Redone != 0 || stats.Undone != 0 {
		t.Fatalf("unexpected stats on empty log: %+v", stats)
	}
}

func TestRecordTypeStrings(t *testing.T) {
	types := []RecordType{RecBegin, RecCommit, RecAbort, RecEnd, RecInsert,
		RecDelete, RecUpdate, RecCLR, RecCheckpoint}
	seen := map[string]bool{}
	for _, ty := range types {
		s := ty.String()
		if s == "" || seen[s] {
			t.Fatalf("record type %d has bad or duplicate label %q", ty, s)
		}
		seen[s] = true
	}
}
