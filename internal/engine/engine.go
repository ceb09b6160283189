// Package engine implements the storage engine the DORA prototype and the
// Baseline system are built on — the stand-in for Shore-MT in the paper's
// architecture. It combines the substrates (slotted-page heap files over a
// CLOCK buffer pool, B+Tree primary and secondary indexes, ARIES-style
// write-ahead logging with rollback and restart recovery, and the centralized
// hierarchical lock manager) behind a transactional record API.
//
// Every record operation takes AccessOptions that select between conventional
// execution (full hierarchical locking) and DORA execution (concurrency
// control disabled, or row-only locking for inserts and deletes), mirroring
// the minimal Shore-MT modifications described in Section 4.3 of the paper.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/buffer"
	"dora/internal/lockmgr"
	"dora/internal/metrics"
	"dora/internal/storage"
	"dora/internal/wal"
)

// TableID identifies a table within an Engine.
type TableID uint32

// Common errors returned by record operations.
var (
	ErrNoSuchTable  = errors.New("engine: no such table")
	ErrNoSuchIndex  = errors.New("engine: no such index")
	ErrNotFound     = errors.New("engine: record not found")
	ErrDuplicateKey = errors.New("engine: duplicate primary key")
	ErrTxnDone      = errors.New("engine: transaction already finished")
)

// SecondaryDef describes a secondary index on a table.
type SecondaryDef struct {
	// Name is the index name, unique within the table.
	Name string
	// Columns are the indexed column names, in key order.
	Columns []string
	// Unique enforces key uniqueness.
	Unique bool
}

// TableDef describes a table to create.
type TableDef struct {
	// Name is the table name, unique within the engine.
	Name string
	// Schema lists the table's columns.
	Schema *storage.Schema
	// PrimaryKey names the primary-key columns, in key order.
	PrimaryKey []string
	// RoutingFields names the columns DORA routes on. They default to the
	// first primary-key column. Secondary index leaf entries store the
	// routing-field values of their record (§4.2.2).
	RoutingFields []string
	// Secondary lists the secondary indexes to create with the table.
	Secondary []SecondaryDef
}

// Config configures a new Engine.
type Config struct {
	// BufferPoolFrames is the CLOCK pool capacity in 8 KiB frames.
	// The default keeps the evaluation datasets fully resident, matching
	// the paper's in-memory-file-system setup.
	BufferPoolFrames int
	// LockTimeout bounds lock waits in the centralized manager.
	LockTimeout int // milliseconds; 0 means the lock manager default

	// LogSync selects when WAL device writes are forced to stable storage
	// (meaningful for file-backed engines opened with Open; the in-memory
	// device of New treats fsync as a no-op).
	LogSync wal.SyncPolicy
	// LogSyncEvery is the background fsync cadence under wal.SyncInterval.
	LogSyncEvery time.Duration
	// LogSegmentSize caps one WAL segment file (wal.DefaultSegmentSize when
	// zero).
	LogSegmentSize int64

	// CheckpointEvery, when positive, starts a background checkpointer in
	// file-backed engines (Open) that writes a fuzzy checkpoint image on that
	// cadence and truncates the WAL behind it, bounding restart-recovery work
	// by the work done since the last checkpoint. Zero disables the loop;
	// Checkpoint can still be called manually.
	CheckpointEvery time.Duration
}

// DefaultBufferPoolFrames is the default pool capacity (64 MiB of 8 KiB
// pages).
const DefaultBufferPoolFrames = 8192

// Engine is a single-node storage engine instance.
type Engine struct {
	disk *storage.MemDisk
	pool *buffer.Pool
	log  *wal.Manager
	lm   *lockmgr.Manager

	mu       sync.RWMutex
	tables   map[string]*Table
	tablesID map[TableID]*Table
	nextTID  uint32

	nextTxn atomic.Uint64

	// commitHigh is the highest commit-record LSN appended, raised before the
	// committer's early lock release. An unlogged (read-only) commit is
	// acknowledged once the log is durable up to it (CommitAsync).
	commitHigh atomic.Uint64

	// health is the availability state machine (health.go): Healthy until a
	// permanent log-device failure degrades the engine to read-only, Failed
	// once in-memory state is unrecoverable.
	health atomic.Int32

	// Multi-version read path: visibleEpoch is the commit epoch snapshots
	// pin; epochMu serializes epoch assignment with version stamping so a
	// transaction becomes visible atomically; snaps registers live snapshot
	// epochs for the prune watermark; cleanups queues committed deletes'
	// index cleanups (sorted by epoch) until the pruner may run them.
	visibleEpoch atomic.Uint64
	epochMu      sync.Mutex
	snapMu       sync.Mutex
	snaps        map[uint64]uint64
	nextSnap     uint64
	cleanMu      sync.Mutex
	cleanups     []epochCleanup
	prunerStop   chan struct{}
	prunerDone   chan struct{}
	prunerOnce   sync.Once
	// prunerMu excludes pruner passes while recovery rebuilds tables (and
	// resets their version stores) under a live engine — Recover replays into
	// an engine whose pruner New already started.
	prunerMu sync.Mutex

	colMu sync.RWMutex
	col   *metrics.Collector

	traceMu    sync.RWMutex
	trace      TraceHook
	traceStart time.Time

	// Fuzzy checkpointing (checkpoint.go): dir roots the ckpt-<cutLSN>.img
	// files (the log directory; empty for in-memory engines, which cannot
	// checkpoint). ckptMu serializes whole checkpoint runs; ckptHook is the
	// crash-matrix fault-injection hook; lastCkpt holds the most recent
	// successful checkpoint's stats.
	dir         string
	ckptMu      sync.Mutex
	ckptHookMu  sync.RWMutex
	ckptHook    CheckpointFaultHook
	lastCkptMu  sync.Mutex
	lastCkpt    CheckpointStats
	lastCkptEnd wal.LSN // log position right after the last RecCheckpoint
	ckptStop    chan struct{}
	ckptDone    chan struct{}
	ckptOnce    sync.Once
}

// New creates an empty engine over the in-memory log device. The engine owns
// a background WAL flusher goroutine; long-lived processes that create
// engines repeatedly should call Close when done with each one.
func New(cfg Config) *Engine {
	log, err := wal.Open(wal.Options{Sync: cfg.LogSync, SyncEvery: cfg.LogSyncEvery})
	if err != nil {
		// The in-memory device cannot fail to open.
		panic(err)
	}
	e := newEngine(cfg, log)
	e.startPruner()
	return e
}

// NewWithDevice creates an empty engine over the provided log device — the
// chaos harness uses it to interpose a wal.FaultDevice between the flusher
// and real storage. The engine owns the device and closes it with Close.
func NewWithDevice(cfg Config, dev wal.Device) (*Engine, error) {
	log, err := wal.Open(wal.Options{
		Device:    dev,
		Sync:      cfg.LogSync,
		SyncEvery: cfg.LogSyncEvery,
	})
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg, log)
	e.startPruner()
	return e, nil
}

// newEngine assembles an engine around an already-open log manager.
func newEngine(cfg Config, log *wal.Manager) *Engine {
	frames := cfg.BufferPoolFrames
	if frames <= 0 {
		frames = DefaultBufferPoolFrames
	}
	var lmOpts []lockmgr.Option
	if cfg.LockTimeout > 0 {
		lmOpts = append(lmOpts, lockmgr.WithTimeout(time.Duration(cfg.LockTimeout)*time.Millisecond))
	}
	disk := storage.NewMemDisk()
	e := &Engine{
		disk:     disk,
		pool:     buffer.NewPool(disk, frames),
		log:      log,
		lm:       lockmgr.New(lmOpts...),
		tables:   make(map[string]*Table),
		tablesID: make(map[TableID]*Table),
		snaps:    make(map[uint64]uint64),
	}
	// The pruner is started by New/Open once the engine is fully assembled:
	// recovery rebuilds tables (and resets their version stores) before any
	// background goroutine may walk them.
	return e
}

// Log exposes the engine's log manager (used by the harness to model log
// pressure and by recovery tests).
func (e *Engine) Log() *wal.Manager { return e.log }

// Close releases the engine's background resources (the version pruner, the
// WAL group-commit flusher, and the log device). It must be called after all
// in-flight transactions finish; it returns the first log-device error
// observed.
func (e *Engine) Close() error {
	e.stopCheckpointer()
	e.stopPruner()
	return e.log.Close()
}

// LockManager exposes the centralized lock manager (used by DORA for the few
// operations that still need centralized coordination, and by tests).
func (e *Engine) LockManager() *lockmgr.Manager { return e.lm }

// BufferPool exposes the buffer pool (for statistics).
func (e *Engine) BufferPool() *buffer.Pool { return e.pool }

// SetCollector attaches a metrics collector to the engine, its lock manager,
// and its log manager; nil detaches.
func (e *Engine) SetCollector(c *metrics.Collector) {
	e.colMu.Lock()
	e.col = c
	e.colMu.Unlock()
	e.lm.SetCollector(c)
	e.log.SetCollector(c)
}

// Collector returns the attached metrics collector, which may be nil.
func (e *Engine) Collector() *metrics.Collector {
	e.colMu.RLock()
	defer e.colMu.RUnlock()
	return e.col
}

// CreateTable creates a table with its primary and secondary indexes. The
// definition is logged as a schema record so a file-backed engine can rebuild
// its catalog from the log alone on restart (Open).
func (e *Engine) CreateTable(def TableDef) (*Table, error) {
	return e.createTable(def, true)
}

func (e *Engine) createTable(def TableDef, logSchema bool) (*Table, error) {
	if def.Name == "" || def.Schema == nil || len(def.PrimaryKey) == 0 {
		return nil, fmt.Errorf("engine: table definition needs a name, schema, and primary key")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.tables[def.Name]; exists {
		return nil, fmt.Errorf("engine: table %q already exists", def.Name)
	}
	e.nextTID++
	t, err := newTable(TableID(e.nextTID), def, e.pool)
	if err != nil {
		e.nextTID--
		return nil, err
	}
	if logSchema {
		enc, err := encodeTableDef(def)
		if err != nil {
			e.nextTID--
			return nil, fmt.Errorf("engine: encoding schema of %q: %w", def.Name, err)
		}
		if _, err := e.logWrite(nil, &wal.Record{Type: wal.RecSchema, After: enc}); err != nil {
			e.nextTID--
			return nil, fmt.Errorf("engine: logging schema of %q: %w", def.Name, err)
		}
	}
	e.tables[def.Name] = t
	e.tablesID[t.id] = t
	return t, nil
}

// Table returns the named table.
func (e *Engine) Table(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// Tables returns all tables, in creation order.
func (e *Engine) Tables() []*Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Table, 0, len(e.tablesID))
	for id := TableID(1); id <= TableID(e.nextTID); id++ {
		if t, ok := e.tablesID[id]; ok {
			out = append(out, t)
		}
	}
	return out
}

func (e *Engine) tableByID(id TableID) *Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tablesID[id]
}
