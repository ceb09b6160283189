// Package harness drives the evaluation experiments on the real engine: it
// sets up a workload on either execution system (Baseline or DORA), runs
// closed-loop clients for a fixed duration or transaction count, and collects
// the measurements the paper reports — throughput, response times, time
// breakdowns, and lock-acquisition censuses.
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/metrics"
	"dora/internal/wal"
	"dora/internal/workload"
)

// SystemKind selects the execution system under test.
type SystemKind int

const (
	// Baseline is the conventional thread-to-transaction system.
	Baseline SystemKind = iota
	// DORA is the data-oriented thread-to-data system.
	DORA
)

// String returns the system label used in reports.
func (s SystemKind) String() string {
	if s == DORA {
		return "DORA"
	}
	return "Baseline"
}

// Config describes one experiment run.
type Config struct {
	// Driver is the workload to run.
	Driver workload.Driver
	// System selects Baseline or DORA execution.
	System SystemKind
	// Workers is the number of closed-loop client goroutines.
	Workers int
	// Duration bounds the measurement interval. If zero, TxnsPerWorker is
	// used instead.
	Duration time.Duration
	// TxnsPerWorker bounds the run by transaction count when Duration is 0.
	TxnsPerWorker int
	// Mix overrides the workload's default transaction mix. A single-entry
	// mix pins the run to one transaction kind (as the paper's
	// GetSubscriberData and OrderStatus experiments do).
	Mix workload.Mix
	// Seed seeds the per-worker random generators.
	Seed int64
	// SkipCheck disables the post-run invariant check (for callers that run
	// many back-to-back measurements on the same data and check once at the
	// end).
	SkipCheck bool
}

// Result is the measurement output of one run.
type Result struct {
	System     SystemKind
	Workload   string
	Workers    int
	Elapsed    time.Duration
	Committed  uint64
	Aborted    uint64
	Errors     uint64
	Throughput float64 // committed transactions per second

	MeanLatency time.Duration

	// Breakdown is the normalized time breakdown (work / lock manager /
	// lock-manager contention / DORA overhead), Figure 1b/1c and Figure 2.
	Breakdown metrics.Breakdown
	// LockMgr is the inside-the-lock-manager breakdown, Figure 3.
	LockMgr metrics.LockMgrBreakdown
	// LocksPer100Txns is the Figure 5 census.
	LocksPer100Txns map[metrics.LockClass]float64

	// InvariantErr is the post-run verdict of the workload's consistency
	// checker (workload.Driver.Check): nil when every invariant holds. A
	// non-nil value marks the run as failed regardless of its throughput.
	InvariantErr error
}

// Valid reports whether the run's final database state passed the workload's
// consistency checker.
func (r Result) Valid() bool { return r.InvariantErr == nil }

// String renders a one-line summary.
func (r Result) String() string {
	s := fmt.Sprintf("%s/%s workers=%d tps=%.0f committed=%d aborted=%d mean=%s",
		r.Workload, r.System, r.Workers, r.Throughput, r.Committed, r.Aborted, r.MeanLatency)
	if r.InvariantErr != nil {
		s += fmt.Sprintf(" INVARIANT-VIOLATION: %v", r.InvariantErr)
	}
	return s
}

// Bench is a prepared experiment environment: a loaded engine plus an
// optional DORA system, reusable across runs (the data is loaded once).
type Bench struct {
	Driver workload.Driver
	Engine *engine.Engine
	DORA   *dora.System
}

// Durability selects the benchmark engine's log-device configuration. The
// zero value is the paper's setup: an in-memory device, no fsync.
type Durability struct {
	// LogDir roots a file-backed segmented WAL; empty keeps the in-memory
	// device.
	LogDir string
	// Sync selects when device writes are forced to stable storage.
	Sync wal.SyncPolicy
	// SyncEvery is the background fsync cadence under wal.SyncInterval.
	SyncEvery time.Duration
	// SegmentSize caps one WAL segment file (wal.DefaultSegmentSize if zero).
	SegmentSize int64
	// CheckpointEvery, when positive, runs the engine's background fuzzy
	// checkpointer on that cadence: recovery work after a crash is bounded by
	// the log tail since the last checkpoint, and old WAL segments are
	// reclaimed. File-backed engines only.
	CheckpointEvery time.Duration
}

// Setup creates an engine, loads the workload, and (when executors > 0)
// builds a DORA system bound to it.
func Setup(driver workload.Driver, executorsPerTable int, seed int64) (*Bench, error) {
	return SetupDurable(driver, executorsPerTable, seed, Durability{})
}

// SetupDurable is Setup with an explicit log-device configuration: with a
// LogDir the engine journals the load and every run into a segmented WAL that
// a later engine.Open can recover after a process crash. Reopening a
// directory whose previous process died mid-Load yields that partial state
// (the schema records make the catalog non-empty, so the load is not rerun);
// the post-run invariant checker flags it — callers that crash-test should
// only reuse directories whose load completed (the tpcc crash-restart test
// kills its child only after the child has reported commits).
func SetupDurable(driver workload.Driver, executorsPerTable int, seed int64, dur Durability) (*Bench, error) {
	cfg := engine.Config{
		BufferPoolFrames: 1 << 15,
		LogSync:          dur.Sync,
		LogSyncEvery:     dur.SyncEvery,
		LogSegmentSize:   dur.SegmentSize,
		CheckpointEvery:  dur.CheckpointEvery,
	}
	var e *engine.Engine
	if dur.LogDir != "" {
		var err error
		e, _, err = engine.Open(dur.LogDir, cfg)
		if err != nil {
			return nil, err
		}
	} else {
		e = engine.New(cfg)
	}
	// A reopened log directory already carries the catalog and the data
	// (restart recovery replayed them); only a fresh engine gets loaded.
	if len(e.Tables()) == 0 {
		if err := driver.CreateTables(e); err != nil {
			e.Close()
			return nil, err
		}
		if err := driver.Load(e, rand.New(rand.NewSource(seed))); err != nil {
			e.Close()
			return nil, err
		}
	}
	b := &Bench{Driver: driver, Engine: e}
	if executorsPerTable > 0 {
		sys := dora.NewSystem(e, dora.Config{})
		if err := driver.BindDORA(sys, executorsPerTable); err != nil {
			sys.Stop()
			e.Close()
			return nil, err
		}
		b.DORA = sys
	}
	return b, nil
}

// Close stops the DORA executors and the engine's background resources.
func (b *Bench) Close() {
	if b.DORA != nil {
		b.DORA.Stop()
	}
	b.Engine.Close()
}

// Run executes one measurement run against the prepared environment.
func (b *Bench) Run(cfg Config) Result {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Duration <= 0 && cfg.TxnsPerWorker <= 0 {
		cfg.TxnsPerWorker = 100
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = b.Driver.Mix()
	}
	col := metrics.NewCollector()
	b.Engine.SetCollector(col)
	defer b.Engine.SetCollector(nil)

	var committed, aborted, errs atomic.Uint64
	var busyNanos atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919 + 1))
			count := 0
			for {
				if cfg.Duration > 0 {
					select {
					case <-stop:
						return
					default:
					}
				} else if count >= cfg.TxnsPerWorker {
					return
				}
				kind := mix.Pick(rng)
				t0 := time.Now()
				var err error
				if cfg.System == DORA {
					err = b.Driver.RunDORA(b.DORA, kind, rng, id)
				} else {
					err = b.Driver.RunBaseline(b.Engine, kind, rng, id)
				}
				elapsed := time.Since(t0)
				busyNanos.Add(int64(elapsed))
				count++
				switch {
				case err == nil:
					committed.Add(1)
					if cfg.System == Baseline {
						// DORA records commit latencies itself (it knows the
						// dispatch time); the Baseline path records here.
						col.TxnCommitted(elapsed)
					}
				case errors.Is(err, workload.ErrAborted):
					aborted.Add(1)
				default:
					errs.Add(1)
				}
			}
		}(w)
	}
	if cfg.Duration > 0 {
		time.Sleep(cfg.Duration)
		close(stop)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Attribute the time not accounted to the lock manager or the DORA
	// mechanism as useful work, completing the three-way breakdown.
	accounted := col.Breakdown().Total
	if busy := time.Duration(busyNanos.Load()); busy > accounted {
		col.AddTime(metrics.Work, busy-accounted)
	}

	res := Result{
		System:          cfg.System,
		Workload:        b.Driver.Name(),
		Workers:         cfg.Workers,
		Elapsed:         elapsed,
		Committed:       committed.Load(),
		Aborted:         aborted.Load(),
		Errors:          errs.Load(),
		Throughput:      float64(committed.Load()) / elapsed.Seconds(),
		MeanLatency:     col.MeanLatency(),
		Breakdown:       col.Breakdown(),
		LockMgr:         col.LockMgrBreakdown(),
		LocksPer100Txns: col.LocksPer100Txns(),
	}
	// Every worker has returned and DORA commits complete before Run()
	// returns to the worker, so the engine is quiescent: run the workload's
	// consistency checker and fail the result on a violation.
	if !cfg.SkipCheck {
		res.InvariantErr = b.Driver.Check(b.Engine)
	}
	return res
}
