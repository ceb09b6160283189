package engine

import (
	"encoding/json"
	"fmt"

	"dora/internal/storage"
	"dora/internal/wal"
)

// tableDefJSON is the serialized form of a TableDef carried by RecSchema log
// records. It is a stable wire format independent of the in-memory types.
type tableDefJSON struct {
	Name          string          `json:"name"`
	Columns       []columnJSON    `json:"columns"`
	PrimaryKey    []string        `json:"primary_key"`
	RoutingFields []string        `json:"routing_fields,omitempty"`
	Secondary     []secondaryJSON `json:"secondary,omitempty"`
}

type columnJSON struct {
	Name string `json:"name"`
	Kind uint8  `json:"kind"`
}

type secondaryJSON struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Unique  bool     `json:"unique,omitempty"`
}

// encodeTableDef serializes a table definition for a schema log record.
func encodeTableDef(def TableDef) ([]byte, error) {
	out := tableDefJSON{
		Name:          def.Name,
		PrimaryKey:    def.PrimaryKey,
		RoutingFields: def.RoutingFields,
	}
	for _, c := range def.Schema.Columns {
		out.Columns = append(out.Columns, columnJSON{Name: c.Name, Kind: uint8(c.Kind)})
	}
	for _, s := range def.Secondary {
		out.Secondary = append(out.Secondary, secondaryJSON{Name: s.Name, Columns: s.Columns, Unique: s.Unique})
	}
	return json.Marshal(out)
}

// decodeTableDef parses a schema log record's payload back into a TableDef.
func decodeTableDef(data []byte) (TableDef, error) {
	var in tableDefJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return TableDef{}, err
	}
	cols := make([]storage.Column, len(in.Columns))
	for i, c := range in.Columns {
		cols[i] = storage.Column{Name: c.Name, Kind: storage.Kind(c.Kind)}
	}
	def := TableDef{
		Name:          in.Name,
		Schema:        storage.NewSchema(cols...),
		PrimaryKey:    in.PrimaryKey,
		RoutingFields: in.RoutingFields,
	}
	for _, s := range in.Secondary {
		def.Secondary = append(def.Secondary, SecondaryDef{Name: s.Name, Columns: s.Columns, Unique: s.Unique})
	}
	return def, nil
}

// Open opens (or creates) a file-backed engine rooted at the given log
// directory and runs true restart recovery. When the directory holds a valid
// checkpoint image (see checkpoint.go), recovery loads the newest usable image
// — catalog, heaps, MVCC epoch and id watermarks — and replays only the log
// tail filtered against the image's cut, so restart work is bounded by the
// work done since the last checkpoint rather than by log length. A torn or
// corrupt image falls back to the next-older one, and with no usable image an
// untruncated log is replayed in full from LSN 1: the catalog is rebuilt from
// the schema records, committed work is replayed, in-flight transactions are
// rolled back with compensation records, and all indexes are rebuilt. A
// truncated log whose checkpoint images are all unusable refuses to open
// rather than silently recover partial state. Opening an empty directory
// yields an empty engine whose work becomes recoverable by the next Open.
//
// This is the process-restart counterpart of Engine.Recover (which replays a
// crashed in-process manager into a fresh engine).
func Open(dir string, cfg Config) (*Engine, wal.RecoveryStats, error) {
	var stats wal.RecoveryStats
	log, err := wal.Open(wal.Options{
		Dir:         dir,
		Sync:        cfg.LogSync,
		SyncEvery:   cfg.LogSyncEvery,
		SegmentSize: cfg.LogSegmentSize,
	})
	if err != nil {
		return nil, stats, err
	}
	e := newEngine(cfg, log)
	e.dir = dir

	// Prefer checkpointed recovery when a usable image exists; a truncated log
	// (tail base above 1) REQUIRES one, since the records below the base are
	// gone and only a verified image accounts for them.
	base := log.TailBase()
	ck := loadUsableCheckpoint(dir, base)
	if ck == nil && base > 1 {
		log.Close()
		return nil, stats, fmt.Errorf(
			"engine: log in %s is truncated (tail starts at LSN %d) but no valid checkpoint image covers it", dir, base)
	}

	img, err := log.Scan()
	if err != nil {
		log.Close()
		return nil, stats, err
	}

	// With an image: install its catalog and heap contents, seed the RID remap
	// so tail records find the image's rows, and filter the analysis down to
	// the transactions not already contained in the image.
	var seed map[uint64]storage.RID
	if ck != nil {
		seed = make(map[uint64]storage.RID)
		for _, ti := range ck.tables {
			tbl, err := e.createTable(ti.def, false)
			if err != nil {
				log.Close()
				return nil, stats, fmt.Errorf("engine: restoring table %q from checkpoint: %w", ti.def.Name, err)
			}
			if uint32(tbl.id) != ti.id {
				log.Close()
				return nil, stats, fmt.Errorf("engine: checkpoint table %q restored as id %d, image says %d",
					ti.def.Name, tbl.id, ti.id)
			}
			for i, data := range ti.recs {
				rid, _, err := tbl.heap.insert(data)
				if err != nil {
					log.Close()
					return nil, stats, fmt.Errorf("engine: loading checkpoint record into %q: %w", ti.def.Name, err)
				}
				seed[uint64(ti.id)<<48|ti.rids[i].Key()] = rid
			}
			stats.CheckpointRecords += len(ti.recs)
		}
		stats.CheckpointLSN = ck.cut
		img.ApplyCheckpoint(ck.cut, ck.active)
	}

	// Catalog pass: replay table creations in log order so every table gets
	// the same TableID the change records reference. Tables the image already
	// restored are skipped (their RecSchema records sit below the cut, but the
	// analysis keeps transaction-less records for exactly this pass).
	for _, r := range img.Records {
		if r.Type != wal.RecSchema {
			continue
		}
		def, err := decodeTableDef(r.After)
		if err != nil {
			log.Close()
			return nil, stats, fmt.Errorf("engine: corrupt schema record %s: %w", r, err)
		}
		if _, err := e.Table(def.Name); err == nil {
			continue
		}
		if _, err := e.createTable(def, false); err != nil {
			log.Close()
			return nil, stats, fmt.Errorf("engine: replaying schema record %s: %w", r, err)
		}
	}
	stats2, err := e.replayImage(log, img, seed)
	if err != nil {
		log.Close()
		return nil, stats, err
	}
	stats2.CheckpointLSN, stats2.CheckpointRecords = stats.CheckpointLSN, stats.CheckpointRecords
	stats = stats2
	// Resume transaction-id assignment above everything in the log AND the
	// image's watermark (the tail alone under-counts once the log is
	// truncated) so new transactions never collide with replayed chains.
	nextTxn := uint64(img.MaxTxn)
	if ck != nil && ck.nextTxn > nextTxn {
		nextTxn = ck.nextTxn
	}
	e.nextTxn.Store(nextTxn)
	// Resume the commit epoch above every replayed END record's epoch and the
	// image's epoch, so post-restart snapshots order after every pre-crash
	// commit. Version chains rebuild empty: after replay each surviving heap
	// image is its record's latest committed version — the no-chain base case.
	var maxEpoch uint64
	for _, r := range img.Records {
		if r.Type == wal.RecEnd && r.Epoch > maxEpoch {
			maxEpoch = r.Epoch
		}
	}
	if ck != nil && ck.epoch > maxEpoch {
		maxEpoch = ck.epoch
	}
	e.visibleEpoch.Store(maxEpoch)
	e.startPruner()
	e.startCheckpointer(cfg.CheckpointEvery)
	return e, stats, nil
}
