package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"dora/internal/storage"
)

func intKey(v int64) storage.Key { return storage.EncodeKey(storage.IntValue(v)) }

func rid(i int) storage.RID {
	return storage.RID{Page: storage.PageID(i / 100), Slot: uint16(i % 100)}
}

func TestInsertAndSearchUnique(t *testing.T) {
	tr := New("pk", true)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tr.Len())
	}
	for i := 0; i < 500; i++ {
		e, ok := tr.SearchUnique(intKey(int64(i)))
		if !ok || e.RID != rid(i) {
			t.Fatalf("SearchUnique(%d) = %v, %v", i, e, ok)
		}
	}
	if _, ok := tr.SearchUnique(intKey(1000)); ok {
		t.Fatal("found non-existent key")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueRejectsDuplicates(t *testing.T) {
	tr := New("pk", true)
	if err := tr.Insert(Entry{Key: intKey(1), RID: rid(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(Entry{Key: intKey(1), RID: rid(2)}); err != ErrDuplicateKey {
		t.Fatalf("duplicate insert = %v, want ErrDuplicateKey", err)
	}
}

func TestUniqueReinsertOverDeletedEntry(t *testing.T) {
	tr := New("pk", true)
	if err := tr.Insert(Entry{Key: intKey(1), RID: rid(1)}); err != nil {
		t.Fatal(err)
	}
	if !tr.MarkDeleted(intKey(1), rid(1), true) {
		t.Fatal("MarkDeleted failed")
	}
	// The paper: transactions may safely re-insert a new record with the
	// same primary key as a flagged-deleted entry.
	if err := tr.Insert(Entry{Key: intKey(1), RID: rid(2)}); err != nil {
		t.Fatalf("re-insert over deleted entry: %v", err)
	}
	e, ok := tr.SearchUnique(intKey(1))
	if !ok || e.RID != rid(2) {
		t.Fatalf("SearchUnique after re-insert = %v, %v", e, ok)
	}
}

func TestSecondaryDuplicatesAndRouting(t *testing.T) {
	tr := New("cust_name_idx", false)
	key := storage.EncodeKey(storage.StringValue("SMITH"))
	for i := 0; i < 10; i++ {
		e := Entry{
			Key:     key,
			RID:     rid(i),
			Routing: intKey(int64(i % 3)), // warehouse id
		}
		if err := tr.Insert(e); err != nil {
			t.Fatalf("Insert dup %d: %v", i, err)
		}
	}
	got := tr.Search(key)
	if len(got) != 10 {
		t.Fatalf("Search returned %d entries, want 10", len(got))
	}
	for _, e := range got {
		if len(e.Routing) == 0 {
			t.Fatal("secondary entry lost its routing fields")
		}
	}
}

func TestMarkDeletedHidesFromProbes(t *testing.T) {
	tr := New("idx", false)
	key := intKey(5)
	tr.Insert(Entry{Key: key, RID: rid(1)})
	tr.Insert(Entry{Key: key, RID: rid(2)})
	if !tr.MarkDeleted(key, rid(1), true) {
		t.Fatal("MarkDeleted failed")
	}
	got := tr.Search(key)
	if len(got) != 1 || got[0].RID != rid(2) {
		t.Fatalf("Search after MarkDeleted = %v", got)
	}
	// Rollback path: clearing the flag makes the entry visible again.
	if !tr.MarkDeleted(key, rid(1), false) {
		t.Fatal("clearing deleted flag failed")
	}
	if len(tr.Search(key)) != 2 {
		t.Fatal("entry not visible after clearing deleted flag")
	}
	if tr.MarkDeleted(intKey(99), rid(1), true) {
		t.Fatal("MarkDeleted of missing key should report false")
	}
}

func TestDeletePhysical(t *testing.T) {
	tr := New("idx", true)
	for i := 0; i < 200; i++ {
		tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)})
	}
	for i := 0; i < 200; i += 2 {
		if !tr.Delete(intKey(int64(i)), rid(i)) {
			t.Fatalf("Delete %d failed", i)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	for i := 0; i < 200; i++ {
		_, ok := tr.SearchUnique(intKey(int64(i)))
		if (i%2 == 0) == ok {
			t.Fatalf("key %d presence = %v, want %v", i, ok, i%2 == 1)
		}
	}
	if tr.Delete(intKey(0), rid(0)) {
		t.Fatal("deleting a deleted key should report false")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRangeAndPrefix(t *testing.T) {
	tr := New("idx", true)
	for i := 0; i < 1000; i++ {
		tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)})
	}
	var got []int
	tr.ScanRange(intKey(100), intKey(110), func(e Entry) bool {
		r, _ := e.RID.Page, e.RID.Slot
		_ = r
		got = append(got, int(e.RID.Page)*100+int(e.RID.Slot))
		return true
	})
	if len(got) != 10 || got[0] != 100 || got[9] != 109 {
		t.Fatalf("ScanRange[100,110) = %v", got)
	}

	// Composite-key prefix scan: (warehouse, district) keys, scan one
	// warehouse's districts.
	comp := New("wd", true)
	for w := 1; w <= 3; w++ {
		for d := 1; d <= 10; d++ {
			key := storage.EncodeKey(storage.IntValue(int64(w)), storage.IntValue(int64(d)))
			comp.Insert(Entry{Key: key, RID: rid(w*100 + d)})
		}
	}
	count := 0
	comp.ScanPrefix(storage.EncodeKey(storage.IntValue(2)), func(e Entry) bool {
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("prefix scan of warehouse 2 visited %d entries, want 10", count)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := New("idx", true)
	for i := 0; i < 100; i++ {
		tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)})
	}
	count := 0
	tr.ScanAll(func(e Entry) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early-stop scan visited %d, want 7", count)
	}
}

func TestLeafSplitKeepsFlaggedEntries(t *testing.T) {
	tr := New("idx", false)
	// Fill one leaf with flagged entries, then keep inserting until it
	// splits: the split must keep every flagged entry in place.
	for i := 0; i < degree; i++ {
		tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)})
		tr.MarkDeleted(intKey(int64(i)), rid(i), true)
	}
	for i := degree; i < degree+10; i++ {
		tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	leaves, flagged := 0, 0
	for leaf, _ := tr.seek(nil); leaf != nil; leaf = leaf.next {
		leaves++
		for _, e := range leaf.entries {
			if e.Deleted {
				flagged++
			}
		}
	}
	if leaves < 2 {
		t.Fatalf("%d entries fit in %d leaf; the test needs a split", degree+10, leaves)
	}
	if flagged != degree {
		t.Fatalf("%d flagged entries physically present after the split, want %d", flagged, degree)
	}

	// Snapshot paths still reach the flagged entries...
	for _, i := range []int{0, degree / 2, degree - 1} {
		var got []Entry
		tr.SearchEach(intKey(int64(i)), func(e Entry) bool { got = append(got, e); return true })
		if len(got) != 1 || got[0].RID != rid(i) || !got[0].Deleted {
			t.Fatalf("SearchEach(%d) = %v, want the flagged entry", i, got)
		}
	}
	all, allFlagged := 0, 0
	tr.ScanPrefixAll(nil, func(e Entry) bool {
		all++
		if e.Deleted {
			allFlagged++
		}
		return true
	})
	if all != degree+10 || allFlagged != degree {
		t.Fatalf("ScanPrefixAll visited %d entries (%d flagged), want %d (%d flagged)", all, allFlagged, degree+10, degree)
	}

	// ...while live probes skip them, and Len counts only live entries.
	for i := 0; i < degree; i++ {
		if e, ok := tr.SearchUnique(intKey(int64(i))); ok {
			t.Fatalf("SearchUnique(%d) returned flagged entry %v", i, e)
		}
	}
	live := 0
	tr.ScanPrefix(nil, func(e Entry) bool {
		if e.Deleted {
			t.Fatalf("ScanPrefix returned flagged entry %v", e)
		}
		live++
		return true
	})
	if live != 10 {
		t.Fatalf("ScanPrefix visited %d live entries, want 10", live)
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d, want 10 live entries", tr.Len())
	}
}

// TestUniqueInsertSeesLiveEntryAcrossLeaves builds a run of flagged relics of
// one key that spans several leaves, with the single live entry at the run's
// start, so the insert descent (which lands at the run's end) must walk back
// across leaves to find it.
func TestUniqueInsertSeesLiveEntryAcrossLeaves(t *testing.T) {
	tr := New("pk", true)
	key := intKey(50)
	for i := 0; i < 100; i++ {
		tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)})
	}
	tr.MarkDeleted(key, rid(50), true)
	for i := 0; i < 3*degree; i++ {
		r := rid(1000 + i)
		if err := tr.Insert(Entry{Key: key, RID: r}); err != nil {
			t.Fatalf("reinsert %d over flagged relics: %v", i, err)
		}
		tr.MarkDeleted(key, r, true)
	}
	// Rollback of a delete clears the flag of the first matching entry: the
	// live entry is now the first of the run, several leaves before its end.
	if !tr.MarkDeleted(key, rid(50), false) {
		t.Fatal("clearing the flag of the first entry failed")
	}
	if err := tr.Insert(Entry{Key: key, RID: rid(9999)}); err != ErrDuplicateKey {
		t.Fatalf("insert over a live entry at the start of the run = %v, want ErrDuplicateKey", err)
	}
	if e, ok := tr.SearchUnique(key); !ok || e.RID != rid(50) {
		t.Fatalf("SearchUnique = %v, %v; want the live entry", e, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInsertDeleteMatchesShadowMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New("idx", true)
	shadow := map[int64]storage.RID{}
	for op := 0; op < 20000; op++ {
		k := int64(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			if _, exists := shadow[k]; exists {
				continue
			}
			r := rid(int(k))
			if err := tr.Insert(Entry{Key: intKey(k), RID: r}); err != nil {
				t.Fatalf("Insert(%d): %v", k, err)
			}
			shadow[k] = r
		case 2:
			if r, exists := shadow[k]; exists {
				if !tr.Delete(intKey(k), r) {
					t.Fatalf("Delete(%d) failed", k)
				}
				delete(shadow, k)
			}
		}
	}
	if tr.Len() != len(shadow) {
		t.Fatalf("Len = %d, shadow has %d", tr.Len(), len(shadow))
	}
	for k, r := range shadow {
		e, ok := tr.SearchUnique(intKey(k))
		if !ok || e.RID != r {
			t.Fatalf("SearchUnique(%d) = %v,%v want %v", k, e, ok, r)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestScanOrderProperty checks that a non-unique tree scans back exactly its
// (Key, RID) pairs in key order, duplicates in insertion order. Each quick
// input draws values from a small domain, so most keys repeat.
func TestScanOrderProperty(t *testing.T) {
	type pair struct {
		key string // encoded key
		rid storage.RID
	}
	f := func(raw []uint8, domain uint8) bool {
		tr := New("idx", false)
		mod := int64(domain%16) + 1
		var want []pair
		// Repeat the input so that every case spans several leaves.
		for i := 0; i < 10*len(raw); i++ {
			k := intKey(int64(raw[i%len(raw)]+uint8(i)) % mod)
			tr.Insert(Entry{Key: k, RID: rid(i)})
			want = append(want, pair{string(k), rid(i)})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
		var got []pair
		tr.ScanAll(func(e Entry) bool {
			got = append(got, pair{string(e.Key), e.RID})
			return true
		})
		return slices.Equal(got, want) && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestShadowModelNonUnique drives a non-unique tree with random Insert,
// MarkDeleted, Delete and DeleteFlagged calls on a few composite keys, so
// that each key's duplicates span several leaves, and checks every probe and
// scan against a shadow model every 500 operations.
func TestShadowModelNonUnique(t *testing.T) {
	tr := New("idx", false)
	type ent struct {
		rid     storage.RID
		deleted bool
	}
	// keys is in key order: (a, b) for a < 3, b < 4.
	var keys []storage.Key
	for a := int64(0); a < 3; a++ {
		for b := int64(0); b < 4; b++ {
			keys = append(keys, storage.EncodeKey(storage.IntValue(a), storage.IntValue(b)))
		}
	}
	shadow := make([][]ent, len(keys)) // per key, in insertion order
	toEntries := func(lo, hi int, all bool) []Entry {
		var out []Entry
		for k := lo; k < hi; k++ {
			for _, en := range shadow[k] {
				if all || !en.deleted {
					out = append(out, Entry{Key: keys[k], RID: en.rid, Deleted: en.deleted})
				}
			}
		}
		return out
	}
	collect := func(scan func(func(Entry) bool)) []Entry {
		var out []Entry
		scan(func(e Entry) bool { out = append(out, e); return true })
		return out
	}
	check := func(op int) {
		t.Helper()
		same := func(what string, got, want []Entry) {
			t.Helper()
			if !slices.EqualFunc(got, want, func(a, b Entry) bool {
				return bytes.Equal(a.Key, b.Key) && a.RID == b.RID && a.Deleted == b.Deleted
			}) {
				t.Fatalf("op %d: %s returned %d entries, shadow has %d", op, what, len(got), len(want))
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if want := len(toEntries(0, len(keys), false)); tr.Len() != want {
			t.Fatalf("op %d: Len = %d, shadow has %d live", op, tr.Len(), want)
		}
		for k, key := range keys {
			live := toEntries(k, k+1, false)
			same(fmt.Sprintf("Search(%d)", k), tr.Search(key), live)
			same(fmt.Sprintf("SearchEach(%d)", k), collect(func(fn func(Entry) bool) { tr.SearchEach(key, fn) }), toEntries(k, k+1, true))
			e, ok := tr.SearchUnique(key)
			if ok != (len(live) > 0) || ok && e.RID != live[0].RID {
				t.Fatalf("op %d: SearchUnique(%d) = %v, %v", op, k, e, ok)
			}
		}
		for a := 0; a < 3; a++ {
			prefix := storage.EncodeKey(storage.IntValue(int64(a)))
			same(fmt.Sprintf("ScanPrefix(%d)", a), collect(func(fn func(Entry) bool) { tr.ScanPrefix(prefix, fn) }), toEntries(4*a, 4*a+4, false))
			same(fmt.Sprintf("ScanPrefixAll(%d)", a), collect(func(fn func(Entry) bool) { tr.ScanPrefixAll(prefix, fn) }), toEntries(4*a, 4*a+4, true))
		}
		same("ScanPrefixAll(nil)", collect(func(fn func(Entry) bool) { tr.ScanPrefixAll(nil, fn) }), toEntries(0, len(keys), true))
		same("ScanRange", collect(func(fn func(Entry) bool) { tr.ScanRange(keys[3], keys[9], fn) }), toEntries(3, 9, false))
		same("ScanAll", collect(tr.ScanAll), toEntries(0, len(keys), false))
	}

	rng := rand.New(rand.NewSource(11))
	next := 0
	for op := 1; op <= 20000; op++ {
		k := rng.Intn(len(keys))
		run := shadow[k]
		switch r := rng.Intn(20); {
		case r < 10 || len(run) == 0:
			tr.Insert(Entry{Key: keys[k], RID: rid(next)})
			shadow[k] = append(run, ent{rid: rid(next)})
			next++
		case r < 14:
			j := rng.Intn(len(run))
			if !tr.MarkDeleted(keys[k], run[j].rid, !run[j].deleted) {
				t.Fatalf("op %d: MarkDeleted of a present entry failed", op)
			}
			run[j].deleted = !run[j].deleted
		case r < 17:
			j := rng.Intn(len(run))
			if !tr.Delete(keys[k], run[j].rid) {
				t.Fatalf("op %d: Delete of a present entry failed", op)
			}
			shadow[k] = slices.Delete(run, j, j+1)
		default:
			j := rng.Intn(len(run))
			if got := tr.DeleteFlagged(keys[k], run[j].rid); got != run[j].deleted {
				t.Fatalf("op %d: DeleteFlagged = %v on an entry with deleted=%v", op, got, run[j].deleted)
			}
			if run[j].deleted {
				shadow[k] = slices.Delete(run, j, j+1)
			}
		}
		if op%500 == 0 {
			check(op)
		}
	}
	if tr.MarkDeleted(keys[0], rid(next), true) || tr.Delete(keys[0], rid(next)) || tr.DeleteFlagged(keys[0], rid(next)) {
		t.Fatal("operation on an absent RID reported success")
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	tr := New("idx", true)
	for i := 0; i < 1000; i++ {
		tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(rng.Intn(1000))
				tr.SearchUnique(intKey(k))
			}
		}(int64(g))
	}
	for i := 1000; i < 3000; i++ {
		if err := tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeMetadata(t *testing.T) {
	tr := New("my_index", true)
	if tr.Name() != "my_index" || !tr.Unique() {
		t.Fatalf("metadata wrong: %q %v", tr.Name(), tr.Unique())
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New("bench", true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)})
	}
}

func BenchmarkSearchUnique(b *testing.B) {
	tr := New("bench", true)
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(Entry{Key: intKey(int64(i)), RID: rid(i)})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.SearchUnique(intKey(int64(i % n)))
	}
}

// Composite-key benchmarks. compKey builds a 3-column key (a, b, c), the
// shape of TPC-C's (w, d, o) order keys; the shared tree holds compRows keys,
// compA × compB × compC, so a prefix on (a, b) selects compC entries.
const (
	compA, compB, compC = 1000, 100, 10
	compRows            = compA * compB * compC
)

func compKey(a, b, c int64) storage.Key {
	return storage.EncodeKey(storage.IntValue(a), storage.IntValue(b), storage.IntValue(c))
}

// compTree is built once, in ascending key order like the loaders do, and
// shared by the probe benchmarks.
var compTree = sync.OnceValue(func() *Tree {
	tr := New("bench", true)
	for i := 0; i < compRows; i++ {
		tr.Insert(Entry{Key: compKey(int64(i/(compB*compC)), int64(i/compC%compB), int64(i%compC)), RID: rid(i)})
	}
	return tr
})

// BenchmarkInsertCompositeRandom inserts 3-column keys in scrambled order.
func BenchmarkInsertCompositeRandom(b *testing.B) {
	tr := New("bench", true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := uint64(i) * 0x9E3779B97F4A7C15 // a bijection on uint64
		tr.Insert(Entry{Key: compKey(int64(x>>54), int64(x>>44&1023), int64(x&(1<<44-1))), RID: rid(i)})
	}
}

// BenchmarkInsertCompositeAppend appends 3-column keys in ascending order,
// the loaders' shape.
func BenchmarkInsertCompositeAppend(b *testing.B) {
	tr := New("bench", true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(Entry{Key: compKey(int64(i/(compB*compC)), int64(i/compC%compB), int64(i%compC)), RID: rid(i)})
	}
}

func BenchmarkSearchUniqueComposite(b *testing.B) {
	tr := compTree()
	rng := rand.New(rand.NewSource(1))
	keys := make([]storage.Key, 4096)
	for i := range keys {
		keys[i] = compKey(rng.Int63n(compA), rng.Int63n(compB), rng.Int63n(compC))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.SearchUnique(keys[i%len(keys)]); !ok {
			b.Fatal("key not found")
		}
	}
}

// BenchmarkScanPrefixComposite scans the compC entries under a random (a, b)
// prefix.
func BenchmarkScanPrefixComposite(b *testing.B) {
	tr := compTree()
	rng := rand.New(rand.NewSource(1))
	prefixes := make([]storage.Key, 4096)
	for i := range prefixes {
		prefixes[i] = storage.EncodeKey(storage.IntValue(rng.Int63n(compA)), storage.IntValue(rng.Int63n(compB)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.ScanPrefix(prefixes[i%len(prefixes)], func(Entry) bool { n++; return true })
		if n != compC {
			b.Fatalf("prefix scan visited %d entries, want %d", n, compC)
		}
	}
}

func ExampleTree() {
	tr := New("example", true)
	for i := 3; i >= 1; i-- {
		tr.Insert(Entry{Key: intKey(int64(i)), RID: storage.RID{Page: 1, Slot: uint16(i)}})
	}
	tr.ScanAll(func(e Entry) bool {
		fmt.Println(e.RID.Slot)
		return true
	})
	// Output:
	// 1
	// 2
	// 3
}
