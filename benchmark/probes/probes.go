// Package probes measures the unit cost of each layer from outside: it calls
// the layer's exported functions on inputs shaped like the benchmark's
// workloads and times batches of calls. Nothing here reads a layer's
// internals, so a probe's number is what a caller of that layer pays.
package probes

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dora/internal/btree"
	"dora/internal/buffer"
	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/latch"
	"dora/internal/lockmgr"
	"dora/internal/storage"
	"dora/internal/wal"
)

// Config sizes one probe pass.
type Config struct {
	// Seed fixes the probes' keys and their order.
	Seed int64
	// Reps is the number of repetitions per probe; the median is reported.
	Reps int
	// RepTime is how long one repetition of one probe measures.
	RepTime time.Duration
	// Dir is a scratch directory for the file-backed log probe.
	Dir string
}

// Batch is one timed batch of calls, the unit a span is recorded for.
type Batch struct {
	Start   time.Time
	Elapsed time.Duration
	Calls   int
}

// Result is one probe's measurement in its own unit (see Unit).
type Result struct {
	Name    string
	Unit    string
	Median  float64
	Q1, Q3  float64
	Reps    int
	Batches []Batch
}

// batchTarget is the batch length the calibration aims for: long enough that
// the two clock reads around a batch are noise even for a 20 ns call.
const batchTarget = 200 * time.Microsecond

// A probe runs n calls and returns the time they took; set-up and clean-up
// between calls that a caller would not pay stays outside the returned time.
type probe struct {
	name  string
	unit  string
	scale float64 // nanoseconds per call are divided by this
	run   func(n int) time.Duration
}

// suite is one probe pass: its configuration, its results so far, and the
// first error a measured call returned (which ends the pass).
type suite struct {
	cfg Config
	out map[string]Result
	err error
}

// check records the first error of a measured call.
func (s *suite) check(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

func (s *suite) add(ps ...probe) {
	for _, p := range ps {
		s.out[p.name] = s.measure(p)
	}
}

// measure calibrates the batch size, then times Reps repetitions.
func (s *suite) measure(p probe) Result {
	cfg := s.cfg
	p.run(1) // first-call costs (lazy allocation, cold caches) stay out of the calibration
	n := 1
	for n < 1<<24 && s.err == nil && p.run(n) < batchTarget {
		n *= 2
	}
	res := Result{Name: p.name, Unit: p.unit, Reps: cfg.Reps}
	perCall := make([]float64, 0, cfg.Reps)
	for r := 0; r < cfg.Reps && s.err == nil; r++ {
		var total time.Duration
		calls := 0
		for total < cfg.RepTime && s.err == nil {
			start := time.Now()
			d := p.run(n)
			res.Batches = append(res.Batches, Batch{Start: start, Elapsed: d, Calls: n})
			total += d
			calls += n
		}
		if calls > 0 {
			perCall = append(perCall, float64(total.Nanoseconds())/float64(calls)/p.scale)
		}
	}
	res.Q1, res.Median, res.Q3 = Quartiles(perCall)
	return res
}

// Quartiles returns the first quartile, median and third quartile of the
// values by linear interpolation between order statistics.
func Quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	at := func(q float64) float64 {
		if len(v) == 0 {
			return 0
		}
		pos := q * float64(len(v)-1)
		lo := int(pos)
		if lo+1 >= len(v) {
			return v[len(v)-1]
		}
		return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// timed runs fn once and returns how long it took.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// Table shape shared by the engine and storage probes: TPC-C's CUSTOMER.
const (
	probeTable     = "CUSTOMER"
	probeGroups    = 20   // (warehouse, district) pairs
	probePerGroup  = 1000 // customers per pair
	btreeKeys      = 100000
	btreePerPrefix = 100
)

func customerTuple(w, d, id int64) storage.Tuple {
	return storage.Tuple{
		storage.IntValue(w), storage.IntValue(d), storage.IntValue(id),
		storage.StringValue("BARBARBAR"), storage.StringValue("first-name-16ch"),
		storage.FloatValue(-10), storage.FloatValue(10), storage.IntValue(1),
	}
}

func customerKey(w, d, id int64) storage.Key {
	return storage.EncodeKey(storage.IntValue(w), storage.IntValue(d), storage.IntValue(id))
}

// Run measures every probe and returns the results keyed by metric name.
func Run(cfg Config) (map[string]Result, error) {
	if cfg.Reps < 1 || cfg.RepTime <= 0 {
		return nil, fmt.Errorf("probes: need Reps >= 1 and RepTime > 0")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &suite{cfg: cfg, out: make(map[string]Result)}
	s.add(s.latchProbe())
	s.add(s.storageProbes(rng)...)
	s.add(s.bufferProbe())
	s.add(s.lockmgrProbe())
	s.add(s.btreeProbes(rng)...)
	if err := s.walProbes(); err != nil {
		return nil, err
	}
	if err := s.engineAndDoraProbes(rng); err != nil {
		return nil, err
	}
	return s.out, s.err
}

func (s *suite) latchProbe() probe {
	var l latch.Latch
	return probe{"latch.acquire_ns", "ns", 1, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				l.Acquire()
				l.Release()
			}
		})
	}}
}

var sink int // keeps results of measured calls alive

func (s *suite) storageProbes(rng *rand.Rand) []probe {
	tuple := customerTuple(1, 7, 1+rng.Int63n(probePerGroup))
	encoded := tuple.Encode(nil)
	buf := make([]byte, 0, 2*len(encoded))
	return []probe{
		{"storage.tuple_encode_ns", "ns", 1, func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					sink += len(tuple.Encode(buf[:0]))
				}
			})
		}},
		{"storage.tuple_decode_ns", "ns", 1, func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					t, _ := storage.DecodeTuple(encoded) // encoded above, cannot fail
					sink += len(t)
				}
			})
		}},
		{"storage.key_encode_ns", "ns", 1, func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					sink += len(customerKey(1, 7, int64(i)))
				}
			})
		}},
	}
}

func (s *suite) bufferProbe() probe {
	pool := buffer.NewPool(storage.NewMemDisk(), 64)
	var id storage.PageID
	fr, err := pool.NewPage()
	s.check(err)
	if err == nil {
		id = fr.Page().ID()
		fr.Unpin()
	}
	return probe{"buffer.fetch_hit_ns", "ns", 1, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				fr, err := pool.FetchPage(id)
				if err != nil {
					s.check(err)
					return
				}
				fr.Unpin()
			}
		})
	}}
}

func (s *suite) lockmgrProbe() probe {
	m := lockmgr.New()
	var txn lockmgr.TxnID
	return probe{"lockmgr.acquire_release_ns", "ns", 1, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				txn++
				s.check(m.LockRow(txn, 1, uint64(txn)%4096, lockmgr.ModeX))
				m.ReleaseAll(txn)
			}
		})
	}}
}

func (s *suite) btreeProbes(rng *rand.Rand) []probe {
	tree := btree.New("probe", true)
	key := func(i int) storage.Key {
		return storage.EncodeKey(storage.IntValue(int64(i/btreePerPrefix)), storage.IntValue(int64(i%btreePerPrefix)))
	}
	for _, i := range rng.Perm(btreeKeys) {
		tree.Insert(btree.Entry{Key: key(i), RID: storage.RIDFromKey(uint64(i))}) //nolint:errcheck // distinct keys
	}
	lookups := rng.Perm(btreeKeys)
	next := btreeKeys // first key not in the tree
	return []probe{
		{"btree.search_ns", "ns", 1, func(n int) time.Duration {
			keys := make([]storage.Key, n)
			for i := range keys {
				keys[i] = key(lookups[i%btreeKeys])
			}
			return timed(func() {
				for _, k := range keys {
					if _, ok := tree.SearchUnique(k); ok {
						sink++
					}
				}
			})
		}},
		{"btree.insert_ns", "ns", 1, func(n int) time.Duration {
			entries := make([]btree.Entry, n)
			for i := range entries {
				entries[i] = btree.Entry{Key: key(next + i), RID: storage.RIDFromKey(uint64(next + i))}
			}
			d := timed(func() {
				for _, e := range entries {
					tree.Insert(e) //nolint:errcheck // distinct keys
				}
			})
			// Back to 100 000 keys, outside the measured time.
			for _, e := range entries {
				tree.Delete(e.Key, e.RID)
			}
			return d
		}},
		{"btree.scan_ns_per_entry", "ns", btreePerPrefix, func(n int) time.Duration {
			prefixes := make([]storage.Key, n)
			for i := range prefixes {
				prefixes[i] = storage.EncodeKey(storage.IntValue(int64(lookups[i%btreeKeys] / btreePerPrefix)))
			}
			return timed(func() {
				for _, p := range prefixes {
					tree.ScanPrefix(p, func(btree.Entry) bool { sink++; return true })
				}
			})
		}},
	}
}

// walRecycleBytes is how much log a wal probe lets one in-memory manager
// retain before it starts a fresh one.
const walRecycleBytes = 8 << 20

func updateRecord() *wal.Record {
	return &wal.Record{
		Txn: 1, Type: wal.RecUpdate, TableID: 1, RID: storage.RIDFromKey(1<<16 | 3),
		Before: make([]byte, 24), After: make([]byte, 24),
	}
}

// walProbes measures the log manager over the in-memory device and over a
// file device under SyncOnFlush, and removes the log files it wrote.
func (s *suite) walProbes() error {
	fileDir := filepath.Join(s.cfg.Dir, "probe-wal")
	if err := os.MkdirAll(fileDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(fileDir) //nolint:errcheck // scratch files
	file, err := wal.Open(wal.Options{Dir: fileDir, Sync: wal.SyncOnFlush})
	if err != nil {
		return err
	}
	// The in-memory device keeps every byte, so its buffer grows for as long
	// as a probe appends. fresh starts a new manager every walRecycleBytes:
	// often enough that each repetition averages over several such growths
	// instead of landing, or not, on one large one.
	mem := wal.NewManager()
	fresh := func() {
		if mem.CurrentLSN() > walRecycleBytes {
			mem.Close() //nolint:errcheck // in-memory device
			mem = wal.NewManager()
		}
	}
	appendN := func(m *wal.Manager, r *wal.Record, n int) {
		for i := 0; i < n; i++ {
			_, err := m.Append(r)
			s.check(err)
		}
	}
	commitFlush := func(m *wal.Manager, n int) {
		r := &wal.Record{Txn: 1, Type: wal.RecCommit}
		for i := 0; i < n && s.err == nil; i++ {
			lsn, err := m.Append(r)
			s.check(err)
			m.Flush(lsn)
		}
	}
	s.add([]probe{
		{"wal.append_ns", "ns", 1, func(n int) time.Duration {
			fresh()
			r := updateRecord()
			return timed(func() { appendN(mem, r, n) })
		}},
		// Wall time per append as one of two concurrent appenders sees it:
		// equal to wal.append_ns when the two do not slow each other down.
		{"wal.append_par_ns", "ns", 1, func(n int) time.Duration {
			fresh()
			half := (n + 1) / 2
			d := timed(func() {
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						appendN(mem, updateRecord(), half)
					}()
				}
				wg.Wait()
			})
			return d * time.Duration(n) / time.Duration(half)
		}},
		{"wal.commit_flush_mem_us", "us", 1e3, func(n int) time.Duration {
			fresh()
			return timed(func() { commitFlush(mem, n) })
		}},
		// The sandbox's fsync on the checkout's file system, not a device's.
		{"wal.commit_flush_file_us", "us", 1e3, func(n int) time.Duration {
			return timed(func() { commitFlush(file, n) })
		}},
	}...)
	mem.Close() //nolint:errcheck // in-memory device
	return file.Close()
}

// engineAndDoraProbes loads a CUSTOMER-shaped table into an in-memory engine,
// measures single record operations inside an open transaction, then binds a
// DORA system to the same engine for the no-op transaction probes.
func (s *suite) engineAndDoraProbes(rng *rand.Rand) error {
	eng := engine.New(engine.Config{BufferPoolFrames: 1 << 15}) // as large as the workloads' pool
	defer eng.Close()                                           //nolint:errcheck // in-memory device
	_, err := eng.CreateTable(engine.TableDef{
		Name: probeTable,
		Schema: storage.NewSchema(
			storage.Column{Name: "c_w_id", Kind: storage.KindInt},
			storage.Column{Name: "c_d_id", Kind: storage.KindInt},
			storage.Column{Name: "c_id", Kind: storage.KindInt},
			storage.Column{Name: "c_last", Kind: storage.KindString},
			storage.Column{Name: "c_first", Kind: storage.KindString},
			storage.Column{Name: "c_balance", Kind: storage.KindFloat},
			storage.Column{Name: "c_ytd_payment", Kind: storage.KindFloat},
			storage.Column{Name: "c_payment_cnt", Kind: storage.KindInt},
		),
		PrimaryKey:    []string{"c_w_id", "c_d_id", "c_id"},
		RoutingFields: []string{"c_w_id"},
	})
	if err != nil {
		return err
	}
	load := eng.Begin()
	for g := int64(0); g < probeGroups; g++ {
		for id := int64(1); id <= probePerGroup; id++ {
			if _, err := eng.Insert(load, probeTable, customerTuple(1+g/10, 1+g%10, id), engine.Conventional()); err != nil {
				return err
			}
		}
	}
	if err := eng.Commit(load); err != nil {
		return err
	}
	loaded := int64(probeGroups * probePerGroup)
	randomKey := func() storage.Key {
		g := rng.Int63n(probeGroups)
		return customerKey(1+g/10, 1+g%10, 1+rng.Int63n(probePerGroup))
	}
	bump := func(t storage.Tuple) (storage.Tuple, error) {
		t[5] = storage.FloatValue(t[5].Float + 1)
		return t, nil
	}
	must := s.check
	nextID := int64(probePerGroup) // inserts go to (3, 1, nextID+1...)

	// The scan runs before the insert probe grows the table past `loaded`.
	s.add([]probe{
		{"engine.probe_ns", "ns", 1, func(n int) time.Duration {
			keys := make([]storage.Key, n)
			for i := range keys {
				keys[i] = randomKey()
			}
			txn := eng.Begin()
			d := timed(func() {
				for _, k := range keys {
					t, err := eng.Probe(txn, probeTable, k, engine.DORARead())
					must(err)
					sink += len(t)
				}
			})
			must(eng.Commit(txn))
			return d
		}},
		{"engine.snapshot_scan_ns_per_row", "ns", float64(loaded), func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					snap := eng.BeginSnapshot()
					must(snap.ScanTable(probeTable, func(storage.Tuple) bool { sink++; return true }))
					snap.Release()
				}
			})
		}},
		{"engine.update_ns", "ns", 1, func(n int) time.Duration {
			keys := make([]storage.Key, n)
			for i := range keys {
				keys[i] = randomKey()
			}
			txn := eng.Begin()
			d := timed(func() {
				for _, k := range keys {
					must(eng.Update(txn, probeTable, k, engine.DORARead(), bump))
				}
			})
			must(eng.Commit(txn))
			return d
		}},
		{"engine.insert_ns", "ns", 1, func(n int) time.Duration {
			txn := eng.Begin()
			d := timed(func() {
				for i := 0; i < n; i++ {
					nextID++
					_, err := eng.Insert(txn, probeTable, customerTuple(3, 1, nextID), engine.DORAInsertDelete())
					must(err)
				}
			})
			must(eng.Commit(txn))
			return d
		}},
		{"engine.commit_ns", "ns", 1, func(n int) time.Duration {
			keys := make([]storage.Key, n)
			for i := range keys {
				keys[i] = randomKey()
			}
			return timed(func() {
				for _, k := range keys {
					txn := eng.Begin()
					must(eng.Update(txn, probeTable, k, engine.DORARead(), bump))
					must(eng.Commit(txn))
				}
			})
		}},
	}...)

	// The insert probe grows the table for as long as it measures; a table
	// that outgrew the pool would have measured evictions instead.
	if ev := eng.BufferPool().Stats().Evictions; ev > 0 {
		return fmt.Errorf("probes: the engine probes' table outgrew its buffer pool (%d evictions)", ev)
	}

	sys := dora.NewSystem(eng, dora.Config{})
	defer sys.Stop()
	if err := sys.BindTableInts(probeTable, 1, 2, 2); err != nil {
		return err
	}
	noop := func(*dora.Scope) error { return nil }
	// runNoop runs one transaction of `phases` phases, one no-op action each.
	runNoop := func(phases int) {
		tx := sys.NewTransaction()
		w := storage.EncodeKey(storage.IntValue(1 + rng.Int63n(2)))
		for p := 0; p < phases; p++ {
			tx.Add(p, &dora.Action{Table: probeTable, Key: w, Mode: dora.Shared, Work: noop})
		}
		must(tx.Run())
	}
	s.add(probe{"dora.hop_ns", "ns", 1, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				runNoop(1)
			}
		})
	}})
	// The cost of one more phase: a two-phase no-op minus a one-phase one.
	// The two alternate call by call, because what a hop costs depends on
	// whether the runtime finds the executor's thread awake, which changes
	// from one moment to the next and must hit both sides alike; the median
	// is over the batches.
	var ones []time.Duration // the one-phase half of every batch, calibration included
	two := s.measure(probe{"dora.rvp_ns", "ns", 1, func(n int) time.Duration {
		var one, d time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			runNoop(1)
			t1 := time.Now()
			runNoop(2)
			d += time.Since(t1)
			one += t1.Sub(t0)
		}
		ones = append(ones, one)
		return d
	}})
	ones = ones[len(ones)-len(two.Batches):]
	extra := make([]float64, len(two.Batches))
	for i, b := range two.Batches {
		extra[i] = float64((b.Elapsed - ones[i]).Nanoseconds()) / float64(b.Calls)
	}
	two.Q1, two.Median, two.Q3 = Quartiles(extra)
	two.Reps = len(extra)
	s.out[two.Name] = two

	const allocRuns = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < allocRuns; i++ {
		runNoop(1)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / allocRuns
	s.out["dora.txn_start_allocs"] = Result{
		Name: "dora.txn_start_allocs", Unit: "count", Median: allocs, Q1: allocs, Q3: allocs, Reps: 1,
		Batches: []Batch{{Start: start, Elapsed: elapsed, Calls: allocRuns}},
	}
	return nil
}
