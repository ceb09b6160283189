// Package btree implements the B+Tree indexes of the storage engine.
//
// Primary indexes map unique keys to RIDs. Secondary indexes may hold
// duplicate keys and, following Section 4.2.2 of the paper, every leaf entry
// carries the RID *and* the routing fields of the record so that a DORA
// secondary action can determine which executor owns the heap record, plus a
// 'deleted' flag so that uncommitted deletes remain visible to concurrent
// probes until the deleting transaction commits and clears them. Flagged
// entries are removed only by their owner (rollback or the engine's version
// pruner, once no snapshot can still need them) — never opportunistically at
// leaf splits, because a flagged entry is the only path by which an
// epoch-pinned snapshot reaches the old version chain of a deleted record.
//
// Nodes are binary-searched, and each operation seeks its leaf once: probes,
// scans and deletes start from the first entry >= their key (seek), and an
// insert checks uniqueness at the leaf its single descent reaches.
//
// The tree keeps all nodes in memory (the paper's evaluation stores the whole
// database on an in-memory file system) and is protected by a single
// reader-writer latch; index latching is not the contention the paper studies,
// so the simpler scheme keeps the focus on the lock manager.
package btree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"dora/internal/latch"
	"dora/internal/storage"
)

// degree is the maximum number of entries in a leaf and keys in a branch.
const degree = 64

// ErrDuplicateKey is returned when inserting an existing key into a unique
// index.
var ErrDuplicateKey = errors.New("btree: duplicate key in unique index")

// Entry is one leaf entry of an index.
type Entry struct {
	// Key is the index key (order-preserving encoded).
	Key storage.Key
	// RID is the heap record the entry points at.
	RID storage.RID
	// Routing holds the routing-field key of the record, stored in
	// secondary index leaves so DORA can route the heap access (§4.2.2).
	Routing storage.Key
	// Deleted marks an entry whose record was deleted by a transaction that
	// has not yet committed (or that committed and will clear the entry
	// lazily). Probes skip deleted entries.
	Deleted bool
}

type node struct {
	leaf bool

	// Branch nodes: every key in children[i] is <= keys[i], which is <= every
	// key in children[i+1]. A run of duplicates may straddle a separator.
	keys     []storage.Key
	children []*node

	// Leaf nodes, chained in key order in both directions.
	entries    []Entry
	prev, next *node
}

// childIndex returns the child of branch n to descend into for key. Lookups
// (after=false) go left on a key equal to a separator, reaching the start of
// a run of duplicates; inserts (after=true) go right, so a new duplicate
// joins the end of its run.
func (n *node) childIndex(key storage.Key, after bool) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := bytes.Compare(n.keys[m], key); c < 0 || after && c == 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// entryIndex returns the position of the first entry of leaf n whose key is
// >= key (after=false) or > key (after=true).
func (n *node) entryIndex(key storage.Key, after bool) int {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := bytes.Compare(n.entries[m].Key, key); c < 0 || after && c == 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Tree is a B+Tree index.
type Tree struct {
	name   string
	unique bool

	latch latch.RWLatch
	root  *node
	size  int
}

// New creates an index. Unique trees reject duplicate keys.
func New(name string, unique bool) *Tree {
	return &Tree{name: name, unique: unique, root: &node{leaf: true}}
}

// Name returns the index name.
func (t *Tree) Name() string { return t.name }

// Unique reports whether the index enforces key uniqueness.
func (t *Tree) Unique() bool { return t.unique }

// Len returns the number of live (non-deleted) entries.
func (t *Tree) Len() int {
	t.latch.RLock()
	defer t.latch.RUnlock()
	return t.size
}

// Insert adds an entry. For unique trees it returns ErrDuplicateKey if a live
// entry with the same key exists; flagged entries with the same key do not
// block the insert but are kept alongside the new entry (snapshots still
// resolve the old record through them) until the pruner removes them with
// DeleteFlagged.
func (t *Tree) Insert(e Entry) error {
	t.latch.Lock()
	defer t.latch.Unlock()
	right, splitKey, err := t.insertInto(t.root, e, false)
	if err != nil {
		return err
	}
	if right != nil {
		t.root = &node{
			keys:     []storage.Key{splitKey},
			children: []*node{t.root, right},
		}
	}
	t.size++
	return nil
}

// SearchUnique returns the live entry with the given key.
func (t *Tree) SearchUnique(key storage.Key) (Entry, bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	for n, i := t.seek(key); n != nil; n, i = n.next, 0 {
		for ; i < len(n.entries); i++ {
			e := &n.entries[i]
			if !bytes.Equal(e.Key, key) {
				return Entry{}, false
			}
			if !e.Deleted {
				return *e, true
			}
		}
	}
	return Entry{}, false
}

// Search returns all live entries with exactly the given key (secondary
// indexes may hold duplicates).
func (t *Tree) Search(key storage.Key) []Entry {
	var out []Entry
	t.ScanPrefix(key, func(e Entry) bool {
		if bytes.Equal(e.Key, key) {
			out = append(out, e)
			return true
		}
		return false
	})
	return out
}

// ScanPrefix visits, in key order, every live entry whose key starts with the
// given prefix, invoking fn until it returns false. A nil or empty prefix
// scans the whole tree. Prefix scans are how DORA resolves actions whose
// identifier covers only a leading subset of the routing fields.
func (t *Tree) ScanPrefix(prefix storage.Key, fn func(Entry) bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	for n, i := t.seek(prefix); n != nil; n, i = n.next, 0 {
		for ; i < len(n.entries); i++ {
			e := &n.entries[i]
			if !e.Key.HasPrefix(prefix) {
				return
			}
			if !e.Deleted && !fn(*e) {
				return
			}
		}
	}
}

// scanChunk bounds how many entries ScanPrefixAll visits per read-latch hold.
// The latch is a spin latch, so a scan pinning it across a whole table would
// stall every writer for the duration of the pass — the snapshot path exists
// precisely to avoid that. Between chunks the latch is released and re-taken,
// letting the writer-preferring latch drain queued writers; the scan resumes
// after the last key it emitted.
const scanChunk = 128

// ScanPrefixAll visits, in key order, every entry — flagged ones included —
// whose key starts with the given prefix, invoking fn until it returns false.
// A nil or empty prefix scans the whole tree. Snapshot reads use it: a flagged
// entry is the only index path to a deleted record's version chain, and the
// chain (not the flag) decides visibility at the snapshot's epoch.
//
// fn runs with the tree's read latch held, which is what guarantees that any
// flagged entry fn observes still has its version chain installed (the pruner
// removes entries under the write latch before freeing chains). The latch is
// NOT held across the whole scan: every scanChunk entries it is dropped and
// re-acquired, and the scan re-seeks to just after the last visited key. A
// chunk only ever breaks between distinct keys — duplicate entries of one key
// (a flagged relic plus a live reinsertion) are always visited under a single
// hold, so a caller deduplicating by key never loses the entry that resolves.
// Entries inserted or pruned between chunks are harmless to epoch-pinned
// readers: a new entry's versions carry commit epochs later than any
// already-pinned snapshot, and the pruner only unlinks entries whose delete
// is already visible to every registered snapshot.
func (t *Tree) ScanPrefixAll(prefix storage.Key, fn func(Entry) bool) {
	var last storage.Key // key of the last emitted entry
	resume := false      // the previous hold stopped after every entry of last
	for {
		t.latch.RLock()
		start := prefix
		if resume {
			start = last
		}
		skip, visited := resume, 0
		resume = false
		n, i := t.seek(start)
	chunk:
		for ; n != nil; n, i = n.next, 0 {
			for ; i < len(n.entries); i++ {
				e := &n.entries[i]
				if skip {
					if bytes.Equal(e.Key, last) {
						continue
					}
					skip = false
				}
				if !e.Key.HasPrefix(prefix) {
					t.latch.RUnlock()
					return
				}
				if visited >= scanChunk && !bytes.Equal(e.Key, last) {
					resume = true
					break chunk
				}
				if !fn(*e) {
					t.latch.RUnlock()
					return
				}
				last = append(last[:0], e.Key...)
				visited++
			}
		}
		t.latch.RUnlock()
		if !resume {
			return
		}
	}
}

// SearchEach visits every entry with exactly the given key — flagged ones
// included — invoking fn until it returns false. Like ScanPrefixAll, fn runs
// under the read latch; snapshot point probes use it because a key may carry
// both a flagged entry (old record) and a live one (reinserted record) and
// only the version chains can tell which is visible at a given epoch.
func (t *Tree) SearchEach(key storage.Key, fn func(Entry) bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	for n, i := t.seek(key); n != nil; n, i = n.next, 0 {
		for ; i < len(n.entries); i++ {
			e := &n.entries[i]
			if !bytes.Equal(e.Key, key) || !fn(*e) {
				return
			}
		}
	}
}

// ScanRange visits, in key order, every live entry with lo <= key < hi.
// A nil hi scans to the end of the index.
func (t *Tree) ScanRange(lo, hi storage.Key, fn func(Entry) bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	for n, i := t.seek(lo); n != nil; n, i = n.next, 0 {
		for ; i < len(n.entries); i++ {
			e := &n.entries[i]
			if hi != nil && bytes.Compare(e.Key, hi) >= 0 {
				return
			}
			if !e.Deleted && !fn(*e) {
				return
			}
		}
	}
}

// ScanAll visits every live entry in key order.
func (t *Tree) ScanAll(fn func(Entry) bool) {
	t.ScanRange(nil, nil, fn)
}

// Delete physically removes the entry with the given key and RID. It reports
// whether an entry was removed. When the key holds both a live and a flagged
// entry with the same RID (heap slot reuse while a flagged relic awaits the
// pruner), the live entry is removed — Delete's callers (rollback, index
// replacement) always target the current record, never the relic.
func (t *Tree) Delete(key storage.Key, rid storage.RID) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	var flagged *node
	flaggedIdx := -1
scan:
	for n, i := t.seek(key); n != nil; n, i = n.next, 0 {
		for ; i < len(n.entries); i++ {
			e := &n.entries[i]
			if !bytes.Equal(e.Key, key) {
				break scan
			}
			if e.RID != rid {
				continue
			}
			if !e.Deleted {
				t.size--
				n.entries = slices.Delete(n.entries, i, i+1)
				return true
			}
			if flaggedIdx < 0 {
				flagged, flaggedIdx = n, i
			}
		}
	}
	if flaggedIdx < 0 {
		return false
	}
	flagged.entries = slices.Delete(flagged.entries, flaggedIdx, flaggedIdx+1)
	return true
}

// DeleteFlagged physically removes the entry with the given key and RID only
// if its deleted flag is set, reporting whether an entry was removed. The
// pruner uses it for deferred delete cleanup: after a heap slot is reused the
// key may map to both a flagged entry (old record) and a live entry
// (reinserted record) with the same RID, and a plain Delete could remove the
// live one.
func (t *Tree) DeleteFlagged(key storage.Key, rid storage.RID) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	for n, i := t.seek(key); n != nil; n, i = n.next, 0 {
		for ; i < len(n.entries); i++ {
			e := &n.entries[i]
			if !bytes.Equal(e.Key, key) {
				return false
			}
			if e.RID == rid && e.Deleted {
				n.entries = slices.Delete(n.entries, i, i+1)
				return true
			}
		}
	}
	return false
}

// MarkDeleted sets (or clears) the deleted flag on the entry with the given
// key and RID, reporting whether the entry was found. Flagging instead of
// removing is the §4.2.2 mechanism that preserves isolation for secondary
// index probes racing with uncommitted deletes. When the key holds several
// entries with the same RID (a flagged relic next to a reused-slot live
// entry), the one not already in the target state is toggled, so flagging a
// re-deleted record does not no-op against the relic.
func (t *Tree) MarkDeleted(key storage.Key, rid storage.RID, deleted bool) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	found := false
	for n, i := t.seek(key); n != nil; n, i = n.next, 0 {
		for ; i < len(n.entries); i++ {
			e := &n.entries[i]
			if !bytes.Equal(e.Key, key) {
				return found
			}
			if e.RID != rid {
				continue
			}
			found = true
			if e.Deleted != deleted {
				if deleted {
					t.size--
				} else {
					t.size++
				}
				e.Deleted = deleted
				return true
			}
		}
	}
	return found
}

// seek returns the position of the first entry whose key is >= key: a leaf
// and an index into its entries. The index may equal the leaf's length, in
// which case the entry (if any) heads a later leaf of the chain; callers walk
// forward from the position. Descending left on keys equal to a separator
// makes every leaf before the returned one hold only smaller keys.
func (t *Tree) seek(key storage.Key) (*node, int) {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key, false)]
	}
	return n, n.entryIndex(key, false)
}

// insertInto inserts e into the subtree rooted at n, descending right of
// separators equal to e.Key. straddle records whether a separator left of the
// path so far equals e.Key, i.e. whether a run of e.Key duplicates may reach
// into leaves before the one the descent ends at. If n splits, insertInto
// returns the new right sibling and the key separating them. For a unique
// tree it returns ErrDuplicateKey, leaving the tree unchanged, if a live
// entry with e.Key exists. Caller holds the write latch.
func (t *Tree) insertInto(n *node, e Entry, straddle bool) (*node, storage.Key, error) {
	if n.leaf {
		pos := n.entryIndex(e.Key, true)
		if t.unique && liveBefore(n, pos, e.Key, straddle) {
			return nil, nil, ErrDuplicateKey
		}
		n.entries = slices.Insert(n.entries, pos, e)
		if len(n.entries) <= degree {
			return nil, nil, nil
		}
		right, splitKey := splitLeaf(n)
		return right, splitKey, nil
	}
	i := n.childIndex(e.Key, true)
	straddle = straddle || i > 0 && bytes.Equal(n.keys[i-1], e.Key)
	right, splitKey, err := t.insertInto(n.children[i], e, straddle)
	if right == nil {
		return nil, nil, err
	}
	n.keys = slices.Insert(n.keys, i, splitKey)
	n.children = slices.Insert(n.children, i+1, right)
	if len(n.keys) <= degree {
		return nil, nil, nil
	}
	right, splitKey = splitBranch(n)
	return right, splitKey, nil
}

// liveBefore reports whether a live entry with key ends the run of key
// duplicates that precedes position pos of leaf n. Inserts land after every
// equal entry, so that run ends at pos; it continues into earlier leaves only
// when straddle is set, and the walk then follows the leaf chain backwards
// across the duplicates. A unique tree holds at most one live entry per key,
// beside flagged relics of deleted records.
func liveBefore(n *node, pos int, key storage.Key, straddle bool) bool {
	for {
		for ; pos > 0; pos-- {
			e := &n.entries[pos-1]
			if !bytes.Equal(e.Key, key) {
				return false
			}
			if !e.Deleted {
				return true
			}
		}
		if !straddle || n.prev == nil {
			return false
		}
		n = n.prev
		pos = len(n.entries)
	}
}

// splitLeaf splits an over-full leaf. Flagged entries are NOT collected here:
// dropping one would sever an uncommitted delete's rollback path and hide the
// record's version chain from epoch-pinned snapshots. Physical removal is the
// pruner's job (DeleteFlagged), once the flagged entry is provably dead.
func splitLeaf(n *node) (*node, storage.Key) {
	mid := len(n.entries) / 2
	right := &node{leaf: true, prev: n, next: n.next}
	right.entries = append(right.entries, n.entries[mid:]...)
	n.entries = n.entries[:mid:mid]
	if n.next != nil {
		n.next.prev = right
	}
	n.next = right
	return right, right.entries[0].Key
}

func splitBranch(n *node) (*node, storage.Key) {
	mid := len(n.keys) / 2
	splitKey := n.keys[mid]
	right := &node{}
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return right, splitKey
}

// Validate checks the structural invariants of the tree: every branch key
// separates its subtrees (keys in children[i] <= keys[i] <= keys in
// children[i+1]), all leaves sit at the same depth, no node overflows, the
// leaves are chained in order in both directions with sorted keys, and Len
// counts exactly the live entries. It is used by tests and returns a
// descriptive error on violation.
func (t *Tree) Validate() error {
	t.latch.RLock()
	defer t.latch.RUnlock()
	v := validator{name: t.name, leafDepth: -1}
	if err := v.check(t.root, nil, nil, 0); err != nil {
		return err
	}
	if v.prevLeaf.next != nil {
		return fmt.Errorf("btree %s: last leaf links to a successor", t.name)
	}
	if v.live != t.size {
		return fmt.Errorf("btree %s: size %d does not match %d live entries", t.name, t.size, v.live)
	}
	return nil
}

// validator carries Validate's state through an in-order walk of the tree.
type validator struct {
	name      string
	leafDepth int   // depth of the first leaf reached, -1 before it
	prevLeaf  *node // leaf visited last
	prevKey   storage.Key
	live      int
}

// check validates the subtree rooted at n, whose keys must lie within
// [lo, hi]; a nil bound is open.
func (v *validator) check(n *node, lo, hi storage.Key, depth int) error {
	if !n.leaf {
		if len(n.children) != len(n.keys)+1 || len(n.keys) > degree {
			return fmt.Errorf("btree %s: branch with %d keys and %d children", v.name, len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if clo != nil && chi != nil && bytes.Compare(clo, chi) > 0 {
				return fmt.Errorf("btree %s: branch keys out of order: %s before %s", v.name, clo, chi)
			}
			if err := v.check(c, clo, chi, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if v.leafDepth < 0 {
		v.leafDepth = depth
	} else if depth != v.leafDepth {
		return fmt.Errorf("btree %s: leaves at depths %d and %d", v.name, v.leafDepth, depth)
	}
	if len(n.entries) > degree {
		return fmt.Errorf("btree %s: leaf with %d entries", v.name, len(n.entries))
	}
	if n.prev != v.prevLeaf || v.prevLeaf != nil && v.prevLeaf.next != n {
		return fmt.Errorf("btree %s: leaf chain out of tree order", v.name)
	}
	v.prevLeaf = n
	for _, e := range n.entries {
		if lo != nil && bytes.Compare(e.Key, lo) < 0 || hi != nil && bytes.Compare(e.Key, hi) > 0 {
			return fmt.Errorf("btree %s: key %s outside its separators [%s, %s]", v.name, e.Key, lo, hi)
		}
		if v.prevKey != nil && bytes.Compare(v.prevKey, e.Key) > 0 {
			return fmt.Errorf("btree %s: keys out of order: %s after %s", v.name, e.Key, v.prevKey)
		}
		v.prevKey = e.Key
		if !e.Deleted {
			v.live++
		}
	}
	return nil
}
