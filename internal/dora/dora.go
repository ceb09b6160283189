// Package dora implements Data-Oriented transaction execution — the paper's
// primary contribution. Instead of the conventional thread-to-transaction
// assignment, DORA binds worker threads (executors) to disjoint logical
// partitions of each table (datasets) via routing rules, decomposes every
// transaction into a transaction flow graph of actions separated by
// rendezvous points (RVPs), routes each action to the executor owning the data
// it touches, and replaces centralized logical locking with per-executor
// thread-local lock tables. Record inserts and deletes still take row-level
// locks in the centralized manager to coordinate page-slot reuse (§4.2.1), and
// commit is a one-off log flush followed by asynchronous local-lock release
// messages to the participating executors (Appendix A.1).
//
// Routing state is owned by the PartitionManager (partition.go): an
// immutable, versioned partition table per dataset, swapped atomically on
// every change, so the route-lookup hot path takes no locks. The optional
// Balancer (balancer.go) closes the loop between the executors' load reports
// and the routing rule.
package dora

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dora/internal/engine"
	"dora/internal/metrics"
	"dora/internal/storage"
)

// Mode is a thread-local lock mode. Local locks have only two modes (§4.1.3).
type Mode int

const (
	// Shared is the read mode of the local lock table.
	Shared Mode = iota
	// Exclusive is the write mode of the local lock table.
	Exclusive
)

// String returns the mode mnemonic.
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// Errors returned by the DORA runtime.
var (
	// ErrNoRoutingRule is returned when a transaction references a table
	// that has not been bound to executors.
	ErrNoRoutingRule = errors.New("dora: table has no routing rule")
	// ErrTxnTimeout is returned when a transaction exceeds the system's
	// transaction timeout and is aborted.
	ErrTxnTimeout = errors.New("dora: transaction timed out")
	// ErrLockWaitTimeout aborts a transaction whose action stayed parked on a
	// local-lock wait list longer than the system's lock-wait timeout. Local
	// locks are partitioned per executor, so a cycle spanning executors is
	// invisible to any single lock table; bounding the wait and aborting the
	// victim is the deadlock-resolution mechanism. Workloads treat it as a
	// retryable abort.
	ErrLockWaitTimeout = errors.New("dora: local lock wait timed out (possible deadlock)")
	// ErrSystemStopped is returned when work is submitted after Stop.
	ErrSystemStopped = errors.New("dora: system stopped")
	// ErrDeadlineExceeded aborts a transaction whose per-transaction deadline
	// (Config.TxnDeadline or Transaction.WithBudget) expired. It is checked
	// at phase boundaries, before each action executes, at RVP waits, and
	// while parked on a local-lock wait list — a deadline-expired parked
	// transaction reports this, not a deadlock-victim ErrLockWaitTimeout.
	// Workloads treat it as a retryable abort distinct from deadlocks.
	ErrDeadlineExceeded = errors.New("dora: transaction deadline exceeded")
)

// Config configures a DORA system.
type Config struct {
	// TxnTimeout aborts transactions that run longer than this. Zero uses
	// DefaultTxnTimeout.
	TxnTimeout time.Duration
	// LockWaitTimeout aborts a transaction when one of its actions waits on a
	// local lock longer than this (the cross-executor deadlock backstop).
	// Zero uses DefaultLockWaitTimeout.
	LockWaitTimeout time.Duration
	// Balancer, when non-nil, starts the online rebalancing control loop with
	// the given configuration (zero-value fields select the defaults): the
	// partition manager then moves routing boundaries automatically when the
	// executors' load reports show sustained skew.
	Balancer *BalancerConfig
	// Admission, when non-nil, enables the load-shedding admission controller
	// (admission.go): transaction entry is gated on a credit pool and on
	// sampled executor-queue and WAL-backlog watermarks, refusing arrivals
	// with a typed ErrOverloaded instead of letting queues grow unboundedly.
	Admission *AdmissionConfig
	// TxnDeadline, when positive, gives every transaction a default deadline
	// budget measured from dispatch; a transaction that exceeds it aborts
	// with ErrDeadlineExceeded. Transaction.WithBudget overrides it per
	// transaction. Zero means no default deadline (TxnTimeout still bounds
	// the total wait).
	TxnDeadline time.Duration
}

// DefaultTxnTimeout is the default transaction timeout.
const DefaultTxnTimeout = 10 * time.Second

// DefaultLockWaitTimeout is the default local-lock wait bound. It is generous
// next to the microsecond-scale waits of healthy execution, so it fires only
// for genuine cross-executor deadlocks: multi-phase flows that do not claim
// their whole lock footprint in their first atomic submission (the TPC-C
// drivers do, via claim actions, and are deadlock-free among themselves), or
// routing-boundary moves re-homing a key between a transaction's phases.
const DefaultLockWaitTimeout = time.Second

// System is a DORA execution engine layered over a storage engine.
type System struct {
	eng *engine.Engine
	cfg Config

	stopped  atomic.Bool
	nextExec int // global executor ordinal (guarded by pm.mu), defines the submission order

	pm        *PartitionManager
	admission *admissionController // nil when admission control is off

	statSecondaryInline atomic.Uint64 // secondary actions run on the RVP thread
	statForwarded       atomic.Uint64 // primary actions forwarded by secondaries
}

// NewSystem creates a DORA system over the given storage engine. Tables must
// be bound to executors with BindTable (or BindTableInts) before transactions
// that touch them are run.
func NewSystem(eng *engine.Engine, cfg Config) *System {
	if cfg.TxnTimeout <= 0 {
		cfg.TxnTimeout = DefaultTxnTimeout
	}
	if cfg.LockWaitTimeout <= 0 {
		cfg.LockWaitTimeout = DefaultLockWaitTimeout
	}
	s := &System{
		eng: eng,
		cfg: cfg,
	}
	s.pm = newPartitionManager(s)
	if cfg.Balancer != nil {
		s.pm.balancer = newBalancer(s.pm, *cfg.Balancer)
		s.pm.balancer.start()
	}
	if cfg.Admission != nil {
		s.admission = newAdmissionController(s, *cfg.Admission)
	}
	return s
}

// Engine returns the underlying storage engine.
func (s *System) Engine() *engine.Engine { return s.eng }

// PartitionManager returns the system's partition manager: the owner of the
// routing rules, the load accounting, and the execution-plan policy.
func (s *System) PartitionManager() *PartitionManager { return s.pm }

// Balancer returns the online rebalancing control loop, or nil when the
// system runs without one.
func (s *System) Balancer() *Balancer { return s.pm.balancer }

func (s *System) collector() *metrics.Collector { return s.eng.Collector() }

// BindTable binds a table to a set of executors with an explicit routing
// rule: boundaries[i] is the smallest routing key assigned to executor i+1, so
// numExecutors = len(boundaries)+1. Keys below boundaries[0] (or all keys,
// when boundaries is empty) belong to executor 0.
//
// Tables bound this way have no known key-space extent, so the balancer
// leaves them alone; BindTableInts declares the extent and arms it.
func (s *System) BindTable(table string, boundaries []storage.Key) error {
	if _, err := s.eng.Table(table); err != nil {
		return err
	}
	return s.pm.bind(table, boundaries, false, 0, 0)
}

// BindTableInts is a convenience wrapper for tables whose first routing field
// is an integer in [lo, hi]: the key space is split into numExecutors
// contiguous, equally sized datasets. This is the configuration used by all
// three evaluation workloads (warehouse id, branch id, subscriber id ranges).
func (s *System) BindTableInts(table string, lo, hi int64, numExecutors int) error {
	if numExecutors <= 0 {
		return fmt.Errorf("dora: need at least one executor for %q", table)
	}
	if hi < lo {
		return fmt.Errorf("dora: invalid key range [%d,%d] for %q", lo, hi, table)
	}
	if _, err := s.eng.Table(table); err != nil {
		return err
	}
	span := hi - lo + 1
	boundaries := make([]storage.Key, 0, numExecutors-1)
	for i := 1; i < numExecutors; i++ {
		cut := lo + span*int64(i)/int64(numExecutors)
		boundaries = append(boundaries, storage.EncodeKey(storage.IntValue(cut)))
	}
	return s.pm.bind(table, boundaries, true, lo, hi)
}

// Executors returns the executors bound to a table, in dataset order.
func (s *System) Executors(table string) []*Executor {
	rt := s.pm.current(table)
	if rt == nil {
		return nil
	}
	out := make([]*Executor, len(rt.executors))
	copy(out, rt.executors)
	return out
}

// RoutingBoundaries returns a copy of the table's routing boundaries.
func (s *System) RoutingBoundaries(table string) []storage.Key {
	rt := s.pm.current(table)
	if rt == nil {
		return nil
	}
	out := make([]storage.Key, len(rt.boundaries))
	copy(out, rt.boundaries)
	return out
}

// executorFor returns the executor owning the routing key of the given table.
// It is the route-lookup hot path: three atomic pointer loads and a binary
// search over an immutable boundary slice, no locks.
func (s *System) executorFor(table string, key storage.Key) (*Executor, error) {
	rt := s.pm.current(table)
	if rt == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoRoutingRule, table)
	}
	return rt.route(key), nil
}

// allExecutors returns every executor of the table (for broadcast actions).
func (s *System) allExecutors(table string) ([]*Executor, error) {
	rt := s.pm.current(table)
	if rt == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoRoutingRule, table)
	}
	out := make([]*Executor, len(rt.executors))
	copy(out, rt.executors)
	return out, nil
}

// Stop shuts down the balancer and every executor. In-flight transactions are
// allowed to finish their current actions; new submissions fail with
// ErrSystemStopped.
func (s *System) Stop() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	if s.pm.balancer != nil {
		s.pm.balancer.Stop()
	}
	for _, p := range s.pm.snapshot() {
		for _, ex := range p.cur.Load().executors {
			ex.stop()
		}
	}
}

// Stats aggregates executor statistics for the whole system.
type Stats struct {
	// ActionsExecuted is the total number of actions executed.
	ActionsExecuted uint64
	// ActionsInline is the number of actions Run callers executed on idle
	// executors' datasets themselves (Transaction.Run); they count toward
	// ActionsExecuted but not toward BatchesDrained or MessagesProcessed.
	ActionsInline uint64
	// ActionsBlocked is the number of actions that had to wait on a local
	// lock before executing.
	ActionsBlocked uint64
	// ActionsWoken is the number of parked actions made runnable by
	// local-lock releases.
	ActionsWoken uint64
	// LocalLockAcquisitions is the number of thread-local locks taken.
	LocalLockAcquisitions uint64
	// BatchesDrained is the number of queue drains across all executors; each
	// drain costs one consumer-side latch acquisition.
	BatchesDrained uint64
	// MessagesProcessed is the number of queue messages handled across all
	// executors. BatchesDrained/MessagesProcessed gives the consumer-side
	// latch acquisitions per message.
	MessagesProcessed uint64
	// ExecutorCount is the number of executors across all tables.
	ExecutorCount int
	// Deprecated: always zero; secondary actions run inline.
	SecondariesParallel uint64
	// SecondariesInline is the number of secondary actions executed, all of
	// them inline on the thread that zeroed the previous phase's RVP.
	SecondariesInline uint64
	// ActionsForwarded is the number of primary actions forwarded by
	// secondary actions after resolving their routing keys (§4.2.2).
	ActionsForwarded uint64
	// PartitionVersion is the global partition-table version (bumped on every
	// bind and boundary move).
	PartitionVersion uint64
	// BoundaryMoves is the number of routing-boundary moves applied.
	BoundaryMoves uint64
}

// Stats returns aggregate statistics across all executors.
func (s *System) Stats() Stats {
	var out Stats
	for _, p := range s.pm.snapshot() {
		for _, ex := range p.cur.Load().executors {
			st := ex.Stats()
			out.ActionsExecuted += st.ActionsExecuted
			out.ActionsInline += st.ActionsInline
			out.ActionsBlocked += st.ActionsBlocked
			out.ActionsWoken += st.ActionsWoken
			out.LocalLockAcquisitions += st.LocalLockAcquisitions
			out.BatchesDrained += st.BatchesDrained
			out.MessagesProcessed += st.MessagesProcessed
			out.ExecutorCount++
		}
	}
	out.SecondariesInline = s.statSecondaryInline.Load()
	out.ActionsForwarded = s.statForwarded.Load()
	out.PartitionVersion = s.pm.Version()
	out.BoundaryMoves = s.pm.BoundaryMoves()
	return out
}
