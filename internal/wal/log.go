package wal

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/metrics"
)

// ErrClosed is returned by operations against a closed log manager (appends
// after Close, recovery over a closed manager).
var ErrClosed = errors.New("wal: log manager closed")

// ErrRecoveryInProgress is returned when a second restart recovery is started
// while one is already replaying the same manager.
var ErrRecoveryInProgress = errors.New("wal: recovery already in progress")

// ErrDeviceFailed is the typed sentinel wrapped around every error surfaced
// after the log device has failed: the flusher exhausted its transient-retry
// budget (or hit a permanent fault) and latched the failure, and from then on
// every Append and Err reports it. Callers use errors.Is(err, ErrDeviceFailed)
// to distinguish fatal device loss — which the engine answers by entering
// degraded read-only mode — from retryable transaction-level aborts.
var ErrDeviceFailed = errors.New("wal: log device failed")

// SyncPolicy selects when the log manager forces device writes to stable
// storage.
type SyncPolicy int

const (
	// SyncNone never fsyncs: durability is whatever the device (or the OS
	// page cache) provides. This is the paper's in-memory-file-system setup
	// and the default.
	SyncNone SyncPolicy = iota
	// SyncOnFlush fsyncs once per group-commit flush, after the device write:
	// a commit is acknowledged only when its bytes are on stable storage.
	// Group commit amortizes the fsync exactly as it amortizes the write —
	// one fsync per flush, however many commits the flush coalesced.
	SyncOnFlush
	// SyncInterval fsyncs from a background loop every SyncInterval: commits
	// are acknowledged after the device write and may be lost within one
	// interval of a crash (the classic bounded-staleness tradeoff).
	SyncInterval
)

// String returns the policy mnemonic used in figure output.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncOnFlush:
		return "onflush"
	case SyncInterval:
		return "interval"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// DefaultSyncInterval is the background fsync cadence when SyncInterval is
// selected without an explicit interval.
const DefaultSyncInterval = 5 * time.Millisecond

// Options configures a log manager.
type Options struct {
	// Device is the log device to write. When nil, Dir selects a file-backed
	// device and an empty Dir selects the in-memory device.
	Device Device
	// Dir roots a file-backed segmented log (wal-<firstLSN>.seg files). The
	// directory is created if missing; existing segments are scanned,
	// checksum-verified, and a torn tail is truncated, so opening a directory
	// that a crashed process wrote resumes its log.
	Dir string
	// Sync selects when device writes are forced to stable storage.
	Sync SyncPolicy
	// SyncEvery is the background fsync cadence under SyncInterval
	// (DefaultSyncInterval when zero).
	SyncEvery time.Duration
	// SegmentSize caps one segment file (DefaultSegmentSize when zero).
	SegmentSize int64
	// FlushDelay models extra log-device latency per flush (for experiments).
	FlushDelay time.Duration
	// WriteRetries is how many times the flusher retries a failed device
	// write or fsync (with capped exponential backoff) before latching the
	// failure as permanent. Zero uses DefaultWriteRetries; negative disables
	// retrying. Errors marked permanent (errors.Is(err, ErrPermanent)) skip
	// the retry budget and latch immediately.
	WriteRetries int
	// RetryBackoff is the initial retry backoff, doubled per attempt and
	// capped at MaxRetryBackoff (DefaultRetryBackoff when zero).
	RetryBackoff time.Duration
}

// DefaultWriteRetries is the flusher's default transient-fault retry budget.
const DefaultWriteRetries = 3

// DefaultRetryBackoff is the initial flusher retry backoff.
const DefaultRetryBackoff = time.Millisecond

// MaxRetryBackoff caps the exponential flusher retry backoff.
const MaxRetryBackoff = 20 * time.Millisecond

// Manager is the log manager: it assigns LSNs, buffers log records, and makes
// them durable through a pipelined group-commit protocol. The paper notes
// that under TPC-C NewOrder/Payment and TPC-B the log manager becomes the
// next bottleneck after the lock manager; instead of serializing every commit
// through one mutex-held device write, committers append their commit record,
// register a durable callback keyed by LSN (OnDurable), and a dedicated
// flusher goroutine coalesces all pending commits into one device write (plus,
// under SyncOnFlush, exactly one fsync). While the flusher is paying the
// device latency, new records keep accumulating in the buffer, so the next
// write coalesces everything that arrived meanwhile.
//
// An append takes the buffer latch (mu) once and encodes its record inside
// it: the critical section is an LSN assignment and one memcpy.
// Per-transaction chain state (PrevLSN links) lives with the callers — the
// engine's Txn carries its own chain — and the manager only tracks the
// BEGIN/END-delimited active set for checkpoint cuts, under a dedicated small
// mutex.
//
// Completion is sequenced: the flusher is the only goroutine that runs
// durable callbacks. After each device write it drops mu and runs every
// callback the write made durable, one at a time, in LSN order. A caller that
// registers its callback before letting a dependent run therefore completes
// before that dependent, whose record (and callback) necessarily comes later
// — the ordering the engine's early lock release relies on. Completion
// callbacks must never block on the log: Flush, FlushAll, Engine.Commit, or
// anything else that waits for the flusher deadlocks when called from one.
// Appending is fine.
//
// The durability path is pluggable: the Device interface hides whether the
// log lands in a byte slice (the paper's in-memory setup) or in checksummed,
// length-framed segment files that a restarted process can recover.
type Manager struct {
	mu        sync.Mutex
	buf       []byte // unflushed tail of the log
	flushing  []byte // chunk the flusher is currently writing to the device
	spare     []byte // recycled write buffer
	dev       Device // the durable ("flushed") log image
	devSize   int64  // logical record-stream bytes accepted by the device, truncated prefix included
	base      LSN    // LSN of the device's first retained byte (1 until TruncateBefore)
	callbacks []durableCallback

	// nextLSN and flushedLSN are written under mu (by appenders and the
	// flusher respectively) and read lock-free by the hot stats getters
	// (CurrentLSN, FlushedLSN, Backlog) so admission probes and metrics
	// never contend with appenders.
	nextLSN    atomic.Uint64
	flushedLSN atomic.Uint64

	// activeMu guards the BEGIN/END-delimited active-transaction set that
	// fuzzy checkpoints cut against. Only transaction boundaries touch it —
	// two small map operations per transaction, never one per record.
	activeMu sync.Mutex
	// firstLSN records each live transaction's first log record, deleted at
	// its END. A fuzzy checkpoint's replay horizon (lowLSN) is the minimum
	// over this map: every record of a not-yet-ended transaction sits at or
	// above it, so truncating below lowLSN can never orphan a replayable
	// transaction's records.
	firstLSN map[TxnID]LSN

	col atomic.Pointer[metrics.Collector]

	policy    SyncPolicy
	syncEvery time.Duration

	// flushDelay models the latency of a log device write (zero by default:
	// the paper keeps the log on an in-memory file system).
	flushDelay time.Duration

	// writeRetries / retryBackoff bound the flusher's transient-fault retry
	// loop (see Options.WriteRetries).
	writeRetries int
	retryBackoff time.Duration

	// Group-commit counters, all atomic so FlushStats and the per-counter
	// getters never take the manager mutex.
	flushes        atomic.Uint64
	appends        atomic.Uint64
	commitsFlushed atomic.Uint64
	maxCoalesced   atomic.Uint64
	syncs          atomic.Uint64
	retries        atomic.Uint64 // device write/fsync attempts retried after a transient fault

	// closed rejects appends once Close has begun; it is written under mu
	// and read lock-free by Closed. devClosed marks the device itself
	// released (no further writes possible). devErr latches the first device
	// failure so Close and Err can surface it.
	closed     atomic.Bool
	devClosed  bool
	devErr     error
	recovering bool

	// recovered holds the records decoded while opening a pre-populated
	// device; the first Scan consumes them instead of re-reading and
	// re-decoding the whole log from the device.
	recovered []*Record

	// flushInProgress serializes device writes so a post-Close inline flush
	// can never interleave with the flusher goroutine.
	flushInProgress bool
	flushDone       *sync.Cond

	flushReq   chan struct{}
	quit       chan struct{}
	exited     chan struct{}
	syncExited chan struct{}
	closeOnce  sync.Once
	closeErr   error
}

// durableCallback is one completion waiting for its LSN to become durable.
type durableCallback struct {
	lsn LSN
	fn  func()
}

// NewManager returns an empty log manager over the in-memory device with its
// flusher goroutine running. Call Close to stop the flusher once all commits
// have completed.
func NewManager() *Manager {
	m, err := Open(Options{})
	if err != nil {
		// The in-memory device cannot fail to open.
		panic(err)
	}
	return m
}

// Open creates a log manager over the configured device. With Options.Dir it
// reopens an existing segmented log: the device's valid prefix is recovered
// (checksums verified, torn tail truncated), LSN assignment resumes after the
// last durable byte, and the active-transaction set is rebuilt so checkpoint
// cuts keep covering transactions that straddled the restart.
func Open(opts Options) (*Manager, error) {
	m := &Manager{
		firstLSN:   make(map[TxnID]LSN),
		flushReq:   make(chan struct{}, 1),
		quit:       make(chan struct{}),
		exited:     make(chan struct{}),
		policy:     opts.Sync,
		syncEvery:  opts.SyncEvery,
		flushDelay: opts.FlushDelay,
	}
	m.base = 1
	m.nextLSN.Store(1) // LSN 0 is NilLSN
	if m.policy == SyncInterval && m.syncEvery <= 0 {
		m.syncEvery = DefaultSyncInterval
	}
	switch {
	case opts.WriteRetries > 0:
		m.writeRetries = opts.WriteRetries
	case opts.WriteRetries == 0:
		m.writeRetries = DefaultWriteRetries
	}
	m.retryBackoff = opts.RetryBackoff
	if m.retryBackoff <= 0 {
		m.retryBackoff = DefaultRetryBackoff
	}
	var stream []byte
	base := LSN(1)
	switch {
	case opts.Device != nil:
		// An injected device may already hold a log (e.g. a FileDevice the
		// caller opened directly); resume from its stream like the Dir path.
		m.dev = opts.Device
		devBase, recovered, err := m.dev.ReadAll()
		if err != nil {
			return nil, fmt.Errorf("wal: reading injected device: %w", err)
		}
		base, stream = devBase, recovered
	case opts.Dir != "":
		dev, devBase, recovered, err := OpenFileDevice(opts.Dir, opts.SegmentSize)
		if err != nil {
			return nil, err
		}
		m.dev = dev
		base, stream = devBase, recovered
	default:
		m.dev = NewMemDevice()
	}
	if base > 1 || len(stream) > 0 {
		// Rebuild LSN assignment and the active-transaction set from the
		// recovered tail. LSNs are logical offsets into the full stream ever
		// written, so a truncated prefix (base > 1) shifts nothing: devSize
		// stays the total logical size and the records carry their own LSNs.
		recs, err := decodeAll(stream)
		if err != nil {
			m.dev.Close()
			return nil, fmt.Errorf("wal: recovered log stream is corrupt: %w", err)
		}
		for _, r := range recs {
			if r.Txn != 0 {
				if _, ok := m.firstLSN[r.Txn]; !ok {
					m.firstLSN[r.Txn] = r.LSN
				}
				if r.Type == RecEnd {
					delete(m.firstLSN, r.Txn)
				}
			}
		}
		m.recovered = recs
		m.base = base
		m.devSize = int64(base-1) + int64(len(stream))
		m.nextLSN.Store(uint64(m.devSize) + 1)
		m.flushedLSN.Store(uint64(m.devSize))
	}
	m.flushDone = sync.NewCond(&m.mu)
	go m.flusher()
	if m.policy == SyncInterval {
		m.syncExited = make(chan struct{})
		go m.syncLoop()
	}
	return m, nil
}

// Close stops the flusher (after a final drain) and the interval-sync loop,
// syncs the device, and releases it. It must be called after all in-flight
// commits have completed; it is idempotent and returns the first device
// error observed over the manager's lifetime.
func (m *Manager) Close() error {
	m.closeOnce.Do(func() {
		m.mu.Lock()
		m.closed.Store(true)
		m.mu.Unlock()
		close(m.quit)
		<-m.exited
		if m.syncExited != nil {
			<-m.syncExited
		}
		m.mu.Lock()
		// Wait out any inline flush that raced the drain, then sync and
		// retire the device so no later path can write it.
		for m.flushInProgress {
			m.flushDone.Wait()
		}
		syncErr := m.dev.Sync()
		m.devClosed = true
		if syncErr != nil && m.devErr == nil {
			m.devErr = syncErr
		}
		closeErr := m.dev.Close()
		if closeErr != nil && m.devErr == nil {
			m.devErr = closeErr
		}
		m.closeErr = wrapDevErr(m.devErr)
		m.mu.Unlock()
	})
	return m.closeErr
}

// Closed reports whether Close has begun, after which every Append fails
// with ErrClosed. It is lock-free.
func (m *Manager) Closed() bool { return m.closed.Load() }

// Err returns the first device error the manager has observed, wrapped in the
// ErrDeviceFailed sentinel (nil while the device is healthy).
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return wrapDevErr(m.devErr)
}

// wrapDevErr wraps a latched device error in the ErrDeviceFailed sentinel so
// every caller-visible surface of the failure is errors.Is-able. A nil error
// passes through; an error already carrying the sentinel is not double-wrapped.
func wrapDevErr(err error) error {
	if err == nil || errors.Is(err, ErrDeviceFailed) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrDeviceFailed, err)
}

// Backlog returns the number of logical log bytes appended but not yet
// durable (buffered plus in-flight). It is the log-pressure signal admission
// control gates on: a growing backlog means committers are outrunning the
// device. It reads two atomics and never touches the manager mutex, so the
// admission controller's probe loop cannot perturb the append path it is
// measuring.
func (m *Manager) Backlog() int64 {
	return int64(m.nextLSN.Load()) - 1 - int64(m.flushedLSN.Load())
}

// SyncPolicy returns the manager's sync policy.
func (m *Manager) SyncPolicy() SyncPolicy { return m.policy }

// SetFlushDelay sets a synthetic per-flush latency used to model log-device
// pressure in experiments.
func (m *Manager) SetFlushDelay(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushDelay = d
}

// SetCollector attaches a metrics collector that receives the
// commits-coalesced-per-flush, append-wait, and device-write/fsync latency
// histograms; nil detaches.
func (m *Manager) SetCollector(c *metrics.Collector) {
	m.col.Store(c)
}

// Append assigns the record an LSN and encodes it into the log buffer under
// the buffer latch. The caller owns the record's PrevLSN chain: the manager
// writes whatever chain state the record carries. It returns the assigned
// LSN, or ErrClosed after Close (a closed manager's log image is final and
// must not be mutated), or the latched device error after a device failure (a
// failed manager accepts no new work: its on-disk stream ends at the last
// successful write).
func (m *Manager) Append(r *Record) (LSN, error) {
	if r.Txn != 0 && r.Type == RecBegin {
		// A BEGIN both reserves log space and registers the transaction in
		// the active set. Holding activeMu across the reservation makes the
		// pair atomic against CheckpointCut: a transaction either has its
		// first LSN registered by the time a cut is taken, or every one of
		// its records sits at or above the cut. (Lock order: activeMu before
		// the buffer latch, matching CheckpointCut which takes activeMu
		// only.)
		m.activeMu.Lock()
		lsn, err := m.append(r)
		if err == nil {
			m.firstLSN[r.Txn] = lsn
		}
		m.activeMu.Unlock()
		return lsn, err
	}
	lsn, err := m.append(r)
	if err == nil && r.Txn != 0 && r.Type == RecEnd {
		m.activeMu.Lock()
		delete(m.firstLSN, r.Txn)
		m.activeMu.Unlock()
	}
	return lsn, err
}

// append assigns the LSN and encodes the record, both inside the latch.
func (m *Manager) append(r *Record) (LSN, error) {
	col := m.col.Load()
	var t0 time.Time
	if col != nil {
		t0 = time.Now()
	}
	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return NilLSN, ErrClosed
	}
	if m.devErr != nil {
		err := wrapDevErr(m.devErr)
		m.mu.Unlock()
		return NilLSN, err
	}
	off := len(m.buf)
	r.LSN = LSN(m.nextLSN.Load())
	m.buf = r.encode(m.buf)
	m.nextLSN.Add(uint64(len(m.buf) - off))
	m.mu.Unlock()
	m.appends.Add(1)
	if col != nil {
		col.ObserveAppendWait(time.Since(t0))
	}
	return r.LSN, nil
}

// OnDurable registers fn to run once the log is durable up to at least lsn.
// The flusher runs it (see the Manager comment for the ordering guarantee),
// also when lsn is already durable: registration never completes inline. If
// the device fails or closes first, fn runs anyway, so nothing waits forever;
// it tells the cases apart by comparing its LSN with FlushedLSN. fn must not
// block on the log.
func (m *Manager) OnDurable(lsn LSN, fn func()) {
	m.mu.Lock()
	if next := LSN(m.nextLSN.Load()); lsn >= next {
		// Clamp FlushAll-style requests to the last appended byte so the
		// callback is satisfiable.
		lsn = next - 1
	}
	m.callbacks = append(m.callbacks, durableCallback{lsn: lsn, fn: fn})
	m.mu.Unlock()
	select {
	case <-m.quit:
		// The flusher has been asked to exit (commit racing Close); once it
		// has, run the drain ourselves so the callback is not stranded.
		<-m.exited
		m.flushOnce()
	default:
		select {
		case m.flushReq <- struct{}{}:
		default: // a request is already pending; it covers this callback
		}
	}
}

// Flush forces the log up to at least lsn, blocking until the group-commit
// flusher reports it durable (or the device fails). Group commit falls out
// naturally: every concurrently buffered record rides the same device write.
func (m *Manager) Flush(lsn LSN) {
	if lsn <= m.FlushedLSN() {
		return
	}
	done := make(chan struct{})
	m.OnDurable(lsn, func() { close(done) })
	<-done
}

// FlushAll forces the entire log.
func (m *Manager) FlushAll() {
	m.Flush(m.CurrentLSN())
}

// flusher is the dedicated group-commit goroutine.
func (m *Manager) flusher() {
	defer close(m.exited)
	for {
		select {
		case <-m.flushReq:
			m.flushOnce()
		case <-m.quit:
			m.flushOnce() // final drain so no registered callback is stranded
			return
		}
	}
}

// syncLoop is the SyncInterval background fsync goroutine. A transient fsync
// failure is retried on the next tick (the interval is the backoff); the
// failure latches as devErr only when it persists past the retry budget or is
// marked permanent, matching the flusher's transient-fault tolerance.
func (m *Manager) syncLoop() {
	defer close(m.syncExited)
	t := time.NewTicker(m.syncEvery)
	defer t.Stop()
	consecutive := 0
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
			t0 := time.Now()
			err := m.dev.Sync()
			d := time.Since(t0)
			if err != nil {
				consecutive++
				m.mu.Lock()
				if consecutive > m.writeRetries || errors.Is(err, ErrPermanent) {
					if m.devErr == nil {
						m.devErr = err
					}
				} else {
					m.retries.Add(1)
				}
				m.mu.Unlock()
			} else {
				consecutive = 0
				m.syncs.Add(1)
				if col := m.col.Load(); col != nil {
					col.ObserveFsync(d)
				}
			}
		}
	}
}

// flushOnce coalesces the entire buffered tail into one device write (and,
// under SyncOnFlush, exactly one fsync), then runs every durable callback the
// write covered. The device latency is paid without holding the manager
// mutex, so appends (and therefore the next commit group) proceed while the
// write is in flight; the callbacks run after mu is dropped too.
func (m *Manager) flushOnce() {
	m.mu.Lock()
	for m.flushInProgress {
		m.flushDone.Wait()
	}
	if failed := m.devClosed || m.devErr != nil; failed || len(m.buf) == 0 {
		// Nothing to write, or the device is gone or failed. In the latter
		// case complete everyone so no committer hangs: they observe Err,
		// not durability.
		ready := m.takeCallbacksLocked(failed)
		m.mu.Unlock()
		runCallbacks(ready)
		return
	}
	m.flushInProgress = true
	delay := m.flushDelay
	policy := m.policy
	firstLSN := LSN(m.devSize) + 1
	chunk := m.buf
	m.flushing, m.buf, m.spare = chunk, m.spare, nil
	m.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay) // the modeled extra device latency
	}
	// Write (and under SyncOnFlush fsync) the chunk, retrying transient
	// failures with capped exponential backoff before giving up: a torn write
	// is rolled back off the device between attempts so a retry never
	// double-appends. Permanent faults skip the budget.
	var err error
	var writeDur, syncDur time.Duration
	var retried uint64
	synced := false
	backoff := m.retryBackoff
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		err = m.dev.Append(chunk, firstLSN)
		writeDur = time.Since(t0)
		synced = false
		if err == nil && policy == SyncOnFlush {
			t1 := time.Now()
			err = m.dev.Sync()
			syncDur = time.Since(t1)
			synced = err == nil
		}
		if err == nil || attempt >= m.writeRetries || errors.Is(err, ErrPermanent) {
			break
		}
		m.dev.Unappend() //nolint:errcheck // best-effort before the retry re-appends
		retried++
		time.Sleep(backoff)
		if backoff *= 2; backoff > MaxRetryBackoff {
			backoff = MaxRetryBackoff
		}
	}

	m.mu.Lock()
	m.retries.Add(retried)
	if err != nil {
		// The write (or its fsync) failed: the manager is now failed. Roll
		// the chunk back off the device (best-effort) so commits reported as
		// not-durable cannot resurrect as winners on the next open, keep the
		// durable watermark where it was, and complete every callback so no
		// committer hangs; they observe the failure through FlushedLSN and
		// Err, and every further Append/flush is refused.
		m.dev.Unappend() //nolint:errcheck // best-effort on an already-failed device
		if m.devErr == nil {
			m.devErr = err
		}
		m.flushing = nil
		ready := m.takeCallbacksLocked(true)
		m.flushInProgress = false
		m.flushDone.Broadcast()
		m.mu.Unlock()
		runCallbacks(ready)
		return
	}
	m.devSize += int64(len(chunk))
	m.spare = chunk[:0]
	m.flushing = nil
	m.flushedLSN.Store(uint64(m.devSize))
	m.flushes.Add(1)
	if synced {
		m.syncs.Add(1)
	}
	ready := m.takeCallbacksLocked(false)
	woken := len(ready)
	m.commitsFlushed.Add(uint64(woken))
	if uint64(woken) > m.maxCoalesced.Load() {
		// Only the flusher writes maxCoalesced, and flushes are serialized by
		// flushInProgress, so a plain load-compare-store cannot lose updates.
		m.maxCoalesced.Store(uint64(woken))
	}
	m.flushInProgress = false
	m.flushDone.Broadcast()
	m.mu.Unlock()
	if col := m.col.Load(); col != nil {
		col.ObserveDeviceWrite(writeDur)
		if synced {
			col.ObserveFsync(syncDur)
		}
	}
	runCallbacks(ready)
}

// takeCallbacksLocked removes and returns the callbacks whose LSN is durable,
// or every callback when all is set (the device failed or closed). The caller
// holds mu.
func (m *Manager) takeCallbacksLocked(all bool) []durableCallback {
	flushed := LSN(m.flushedLSN.Load())
	var ready []durableCallback
	remaining := m.callbacks[:0]
	for _, cb := range m.callbacks {
		if all || cb.lsn <= flushed {
			ready = append(ready, cb)
		} else {
			remaining = append(remaining, cb)
		}
	}
	clear(m.callbacks[len(remaining):]) // drop the taken closures for the GC
	m.callbacks = remaining
	return ready
}

// runCallbacks runs durable callbacks one at a time in LSN order. The caller
// must not hold mu.
func runCallbacks(ready []durableCallback) {
	slices.SortStableFunc(ready, func(a, b durableCallback) int { return cmp.Compare(a.lsn, b.lsn) })
	for _, cb := range ready {
		cb.fn()
	}
	if len(ready) > 0 {
		// The callbacks woke committers, which the scheduler queues on this
		// goroutine's P. Yield so they run now instead of waiting behind the
		// next flush: without it, tm1_mix p99 doubled.
		runtime.Gosched()
	}
}

// CurrentLSN returns the LSN that the next appended record will receive.
func (m *Manager) CurrentLSN() LSN {
	return LSN(m.nextLSN.Load())
}

// CheckpointCut atomically latches the state a fuzzy checkpoint needs from the
// log: the cut LSN (every record appended before this call sits strictly below
// it), the set of transactions without an END record together with each one's
// first LSN, and the replay horizon lowLSN — the minimum over those first LSNs
// and the cut itself. The active set is keyed by BEGIN/END records: holding
// activeMu here against Append's BEGIN registration (which spans the LSN
// reservation) guarantees every transaction with a record below the cut is
// either registered or already ended. The engine calls this while holding its
// epoch mutex, so the active set and the cut are consistent with the commit
// epoch the checkpoint image is taken at.
func (m *Manager) CheckpointCut() (cut, low LSN, active map[TxnID]LSN) {
	m.activeMu.Lock()
	defer m.activeMu.Unlock()
	cut = LSN(m.nextLSN.Load())
	low = cut
	active = make(map[TxnID]LSN, len(m.firstLSN))
	for txn, first := range m.firstLSN {
		active[txn] = first
		if first < low {
			low = first
		}
	}
	return cut, low, active
}

// TailBase returns the LSN of the first byte the device still stores: 1 for a
// never-truncated log, the post-truncation base otherwise. Recovery needs a
// checkpoint image whose replay horizon is at or above this.
func (m *Manager) TailBase() LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base
}

// TruncateBefore asks the device to discard log bytes strictly below lsn
// (whole segments only for the file device). The caller must hold a verified
// checkpoint image covering lsn; the manager additionally refuses to truncate
// above the durable watermark. LSN assignment is unaffected — LSNs are offsets
// into the logical stream ever written, truncated or not.
func (m *Manager) TruncateBefore(lsn LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if flushed := LSN(m.flushedLSN.Load()); lsn > flushed+1 {
		return fmt.Errorf("wal: truncate at %d ahead of durable watermark %d", lsn, flushed)
	}
	// The recovered-records cache describes the pre-truncation stream; drop
	// it so a later Scan re-reads the device rather than resurrecting records
	// below the new base.
	m.recovered = nil
	base, err := m.dev.TruncateBefore(lsn)
	if err != nil {
		return err
	}
	m.base = base
	return nil
}

// SetTruncateHook forwards a fault-injection hook to the file device's
// truncation loop (no-op for devices without one); nil clears it.
func (m *Manager) SetTruncateHook(fn func(removed int) error) {
	type hooked interface{ SetTruncateHook(func(int) error) }
	if d, ok := m.dev.(hooked); ok {
		d.SetTruncateHook(fn)
	}
}

// FlushedLSN returns the highest durable LSN.
func (m *Manager) FlushedLSN() LSN {
	return LSN(m.flushedLSN.Load())
}

// Flushes returns the number of log device writes performed.
func (m *Manager) Flushes() uint64 {
	return m.flushes.Load()
}

// Appends returns the number of records appended. It is lock-free.
func (m *Manager) Appends() uint64 {
	return m.appends.Load()
}

// FlushStats reports the group-commit activity of the manager.
type FlushStats struct {
	// Appends is the number of records appended.
	Appends uint64
	// Groups is the number of buffer-latch acquisitions that served those
	// appends. Every append takes the latch once, so it always equals
	// Appends; it is kept for readers that report appends per acquisition.
	Groups uint64
	// Flushes is the number of log device writes performed.
	Flushes uint64
	// Syncs is the number of fsyncs issued (once per flush under SyncOnFlush,
	// on the background cadence under SyncInterval, zero under SyncNone).
	Syncs uint64
	// CommitsFlushed is the number of durable callbacks (commits and Flush
	// calls) completed by device writes; CommitsFlushed/Flushes is the
	// average group size.
	CommitsFlushed uint64
	// MaxCoalesced is the largest commit group a single flush made durable.
	MaxCoalesced uint64
	// Retries is the number of device write/fsync attempts retried after a
	// transient fault (nonzero means the retry loop absorbed failures).
	Retries uint64
}

// FlushStats returns a snapshot of the group-commit counters without taking
// the manager mutex.
func (m *Manager) FlushStats() FlushStats {
	appends := m.appends.Load()
	return FlushStats{
		Appends:        appends,
		Groups:         appends,
		Flushes:        m.flushes.Load(),
		Syncs:          m.syncs.Load(),
		CommitsFlushed: m.commitsFlushed.Load(),
		MaxCoalesced:   m.maxCoalesced.Load(),
		Retries:        m.retries.Load(),
	}
}

// image returns the full logical log image (durable, in-flight, and buffered
// bytes). It waits out any in-progress flush so the device read is
// frame-consistent.
func (m *Manager) image(durableOnly bool) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.flushInProgress {
		m.flushDone.Wait()
	}
	base, stream, err := m.dev.ReadAll()
	if err != nil {
		return nil, err
	}
	if durableOnly {
		durable := int64(m.flushedLSN.Load()) - (int64(base) - 1)
		if durable < 0 {
			durable = 0
		}
		if int64(len(stream)) > durable {
			stream = stream[:durable]
		}
		return stream, nil
	}
	stream = append(stream, m.buf...)
	return stream, nil
}

func decodeAll(image []byte) ([]*Record, error) {
	var out []*Record
	for len(image) > 0 {
		r, n, err := decodeRecord(image)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		image = image[n:]
	}
	return out, nil
}

// Records decodes and returns every record currently in the log (durable,
// in-flight, and buffered), in append order. It is used by rollback,
// recovery, and tests.
func (m *Manager) Records() ([]*Record, error) {
	image, err := m.image(false)
	if err != nil {
		return nil, err
	}
	return decodeAll(image)
}

// DurableRecords decodes only the flushed portion of the log, which is what a
// restart after a crash would see.
func (m *Manager) DurableRecords() ([]*Record, error) {
	image, err := m.image(true)
	if err != nil {
		return nil, err
	}
	return decodeAll(image)
}

// Record looks up the record with the given LSN. It returns nil if the LSN
// does not reference a record boundary.
func (m *Manager) Record(lsn LSN) (*Record, error) {
	recs, err := m.Records()
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if r.LSN == lsn {
			return r, nil
		}
	}
	return nil, nil
}
