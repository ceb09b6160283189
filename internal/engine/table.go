package engine

import (
	"fmt"

	"dora/internal/btree"
	"dora/internal/buffer"
	"dora/internal/storage"
)

// secondaryIndex is one secondary index of a table. Its leaf entries carry the
// record's routing-field key so a DORA secondary action can determine the
// owning executor without touching the heap (§4.2.2).
type secondaryIndex struct {
	def     SecondaryDef
	tree    *btree.Tree
	keyCols []int
}

// Table is a table with its heap file, primary index, and secondary indexes.
type Table struct {
	id  TableID
	def TableDef

	heap      *heapFile
	primary   *btree.Tree
	pkCols    []int
	routeCols []int

	// versions holds the table's record version chains for epoch-pinned
	// snapshot reads (see mvcc.go).
	versions *versionStore

	secondaries map[string]*secondaryIndex
}

func newTable(id TableID, def TableDef, pool *buffer.Pool) (*Table, error) {
	t := &Table{
		id:          id,
		def:         def,
		heap:        newHeapFile(pool),
		primary:     btree.New(def.Name+".pk", true),
		versions:    newVersionStore(),
		secondaries: make(map[string]*secondaryIndex),
	}
	var err error
	t.pkCols, err = resolveColumns(def.Schema, def.PrimaryKey)
	if err != nil {
		return nil, fmt.Errorf("engine: table %q primary key: %w", def.Name, err)
	}
	routing := def.RoutingFields
	if len(routing) == 0 {
		routing = def.PrimaryKey[:1]
	}
	t.routeCols, err = resolveColumns(def.Schema, routing)
	if err != nil {
		return nil, fmt.Errorf("engine: table %q routing fields: %w", def.Name, err)
	}
	for _, sd := range def.Secondary {
		cols, err := resolveColumns(def.Schema, sd.Columns)
		if err != nil {
			return nil, fmt.Errorf("engine: table %q index %q: %w", def.Name, sd.Name, err)
		}
		if _, dup := t.secondaries[sd.Name]; dup {
			return nil, fmt.Errorf("engine: table %q has duplicate index %q", def.Name, sd.Name)
		}
		t.secondaries[sd.Name] = &secondaryIndex{
			def:     sd,
			tree:    btree.New(def.Name+"."+sd.Name, sd.Unique),
			keyCols: cols,
		}
	}
	return t, nil
}

func resolveColumns(s *storage.Schema, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx, ok := s.ColumnIndex(n)
		if !ok {
			return nil, fmt.Errorf("unknown column %q", n)
		}
		out[i] = idx
	}
	return out, nil
}

// ID returns the table's numeric id.
func (t *Table) ID() TableID { return t.id }

// Name returns the table name.
func (t *Table) Name() string { return t.def.Name }

// Schema returns the table schema.
func (t *Table) Schema() *storage.Schema { return t.def.Schema }

// Def returns the table definition.
func (t *Table) Def() TableDef { return t.def }

// RoutingFields returns the names of the routing-field columns.
func (t *Table) RoutingFields() []string {
	if len(t.def.RoutingFields) > 0 {
		return t.def.RoutingFields
	}
	return t.def.PrimaryKey[:1]
}

// NumRecords returns the number of live records in the primary index.
func (t *Table) NumRecords() int { return t.primary.Len() }

// PrimaryKey builds the primary-key encoding of the tuple.
func (t *Table) PrimaryKey(tuple storage.Tuple) storage.Key {
	return storage.EncodeKey(tuple.Project(t.pkCols)...)
}

// RoutingKey builds the routing-field encoding of the tuple, the key DORA
// routes actions and takes local locks on.
func (t *Table) RoutingKey(tuple storage.Tuple) storage.Key {
	return storage.EncodeKey(tuple.Project(t.routeCols)...)
}

// SecondaryKey builds the key of the named secondary index for the tuple.
func (t *Table) SecondaryKey(index string, tuple storage.Tuple) (storage.Key, error) {
	si, ok := t.secondaries[index]
	if !ok {
		return nil, fmt.Errorf("%w: %q on table %q", ErrNoSuchIndex, index, t.def.Name)
	}
	return storage.EncodeKey(tuple.Project(si.keyCols)...), nil
}

// secondary returns the named secondary index.
func (t *Table) secondary(index string) (*secondaryIndex, error) {
	si, ok := t.secondaries[index]
	if !ok {
		return nil, fmt.Errorf("%w: %q on table %q", ErrNoSuchIndex, index, t.def.Name)
	}
	return si, nil
}

// insertIndexEntries adds the tuple to the primary and all secondary indexes.
// The entries share one routing-key slice; no index entry's key is ever
// modified in place.
func (t *Table) insertIndexEntries(tuple storage.Tuple, rid storage.RID) error {
	pk := t.PrimaryKey(tuple)
	routing := t.RoutingKey(tuple)
	if err := t.primary.Insert(btree.Entry{Key: pk, RID: rid, Routing: routing}); err != nil {
		return ErrDuplicateKey
	}
	for _, si := range t.secondaries {
		key := storage.EncodeKey(tuple.Project(si.keyCols)...)
		entry := btree.Entry{Key: key, RID: rid, Routing: routing}
		if err := si.tree.Insert(entry); err != nil {
			// Undo the primary entry to keep indexes consistent.
			t.primary.Delete(pk, rid)
			return fmt.Errorf("engine: unique violation on index %q", si.def.Name)
		}
	}
	return nil
}

// markIndexEntriesDeleted flags (or unflags) the tuple's index entries.
func (t *Table) markIndexEntriesDeleted(tuple storage.Tuple, rid storage.RID, deleted bool) {
	t.primary.MarkDeleted(t.PrimaryKey(tuple), rid, deleted)
	for _, si := range t.secondaries {
		key := storage.EncodeKey(tuple.Project(si.keyCols)...)
		si.tree.MarkDeleted(key, rid, deleted)
	}
}

// removeIndexEntries physically removes the tuple's index entries.
func (t *Table) removeIndexEntries(tuple storage.Tuple, rid storage.RID) {
	t.primary.Delete(t.PrimaryKey(tuple), rid)
	for _, si := range t.secondaries {
		key := storage.EncodeKey(tuple.Project(si.keyCols)...)
		si.tree.Delete(key, rid)
	}
}

// removeIndexEntriesFlagged physically removes the tuple's flagged index
// entries only, leaving any reused-slot live entries with the same key and
// RID untouched. The pruner runs it for committed deletes once no snapshot
// can still resolve through the flagged entries.
func (t *Table) removeIndexEntriesFlagged(tuple storage.Tuple, rid storage.RID) {
	t.primary.DeleteFlagged(t.PrimaryKey(tuple), rid)
	for _, si := range t.secondaries {
		key := storage.EncodeKey(tuple.Project(si.keyCols)...)
		si.tree.DeleteFlagged(key, rid)
	}
}

// replaceIndexEntries fixes index entries after an update changed key or
// routing columns.
func (t *Table) replaceIndexEntries(before, after storage.Tuple, rid storage.RID) error {
	t.removeIndexEntries(before, rid)
	return t.insertIndexEntries(after, rid)
}

// primaryScan visits the RID of every live record in primary-key order.
func (t *Table) primaryScan(fn func(rid storage.RID) bool) {
	t.primary.ScanAll(func(e btree.Entry) bool {
		return fn(e.RID)
	})
}

// rebuildIndexes reconstructs every index from the heap file's live records.
// Recovery uses it after redo/undo. The version store resets to empty: after
// replay every surviving heap image is its record's latest committed version,
// which is exactly the no-chain base case of the snapshot read path.
func (t *Table) rebuildIndexes() error {
	t.versions = newVersionStore()
	t.primary = btree.New(t.def.Name+".pk", true)
	for name, si := range t.secondaries {
		t.secondaries[name] = &secondaryIndex{
			def:     si.def,
			tree:    btree.New(t.def.Name+"."+si.def.Name, si.def.Unique),
			keyCols: si.keyCols,
		}
	}
	return t.heap.scan(func(rid storage.RID, data []byte) error {
		tuple, err := storage.DecodeTuple(data)
		if err != nil {
			return err
		}
		return t.insertIndexEntries(tuple, rid)
	})
}
