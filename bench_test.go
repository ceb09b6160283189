// Benchmarks regenerating, one per figure of the paper's evaluation section,
// the measurements behind that figure. Real-engine benchmarks exercise the
// actual storage engine and DORA runtime on the host; "shape" metrics that
// depend on a 64-context machine (utilization sweeps, breakdowns at
// saturation, peak throughput under admission control) are produced by the
// multicore simulator in internal/sim, which stands in for the paper's Sun
// Niagara II testbed. cmd/dorabench prints the full series for every figure;
// these benchmarks track the headline numbers and guard the shapes.
package dora_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora"
	"dora/internal/engine"
	"dora/internal/harness"
	"dora/internal/metrics"
	"dora/internal/sim"
	"dora/internal/wal"
	"dora/internal/workload"
	"dora/internal/workload/tm1"
	"dora/internal/workload/tpcb"
	"dora/internal/workload/tpcc"
)

// benchTM1 lazily builds a loaded TM1 environment shared by benchmarks.
func benchTM1(b *testing.B) *harness.Bench {
	b.Helper()
	env, err := harness.Setup(tm1.New(2000), 4, 1)
	if err != nil {
		b.Fatalf("setup: %v", err)
	}
	b.Cleanup(env.Close)
	return env
}

func benchTPCB(b *testing.B) *harness.Bench {
	b.Helper()
	w := tpcb.New(4)
	w.AccountsPerBranch = 100
	env, err := harness.Setup(w, 4, 1)
	if err != nil {
		b.Fatalf("setup: %v", err)
	}
	b.Cleanup(env.Close)
	return env
}

func benchTPCC(b *testing.B) *harness.Bench {
	b.Helper()
	w := tpcc.New(2)
	w.CustomersPerDistrict = 60
	w.Items = 200
	env, err := harness.Setup(w, 2, 1)
	if err != nil {
		b.Fatalf("setup: %v", err)
	}
	b.Cleanup(env.Close)
	return env
}

// runTxns executes b.N transactions of one kind on the chosen system and
// reports locks-per-transaction metrics from the collector.
func runTxns(b *testing.B, env *harness.Bench, system harness.SystemKind, kind string) {
	b.Helper()
	col := metrics.NewCollector()
	env.Engine.SetCollector(col)
	defer env.Engine.SetCollector(nil)
	rng := rand.New(rand.NewSource(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if system == harness.DORA {
			err = env.Driver.RunDORA(env.DORA, kind, rng, 0)
		} else {
			err = env.Driver.RunBaseline(env.Engine, kind, rng, 0)
		}
		if err != nil && !isAbort(err) {
			b.Fatalf("%s/%s: %v", kind, system, err)
		}
	}
	b.StopTimer()
	n := float64(b.N)
	census := col.LockCensus()
	b.ReportMetric(float64(census[metrics.RowLock])/n, "rowlocks/txn")
	b.ReportMetric(float64(census[metrics.HigherLevelLock])/n, "higherlocks/txn")
	b.ReportMetric(float64(census[metrics.LocalLock])/n, "locallocks/txn")
}

func isAbort(err error) bool {
	return errors.Is(err, workload.ErrAborted)
}

// --- Figure 1: TM1 GetSubscriberData, Baseline vs DORA -----------------------

func BenchmarkFig1_TM1GetSubData(b *testing.B) {
	env := benchTM1(b)
	b.Run("Baseline", func(b *testing.B) { runTxns(b, env, harness.Baseline, tm1.GetSubscriberData) })
	b.Run("DORA", func(b *testing.B) { runTxns(b, env, harness.DORA, tm1.GetSubscriberData) })
}

// BenchmarkFig1_SimulatedSaturation reports the lock-manager share of
// execution time at full utilization of the simulated 64-context machine
// (Figure 1b vs 1c: ≳85% for the Baseline, ~0 for DORA).
func BenchmarkFig1_SimulatedSaturation(b *testing.B) {
	spec := sim.TM1GetSubscriberData()
	costs := sim.DefaultCosts()
	for _, sys := range []sim.System{sim.SysBaseline, sim.SysDORA} {
		b.Run(sys.String(), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				r := sim.Run(sim.Config{Machine: sim.DefaultMachine(), Threads: 64,
					Profile: spec.Profile(sys, costs), Duration: 50 * time.Millisecond})
				frac = r.LockMgrFraction()
			}
			b.ReportMetric(frac*100, "lockmgr%")
		})
	}
}

// --- Figure 2: time breakdown at 100% utilization -----------------------------

func BenchmarkFig2_Breakdown(b *testing.B) {
	costs := sim.DefaultCosts()
	for _, wl := range []struct {
		name string
		spec sim.TxnSpec
	}{
		{"TM1", sim.TM1Mix()},
		{"TPCC-OrderStatus", sim.TPCCOrderStatus()},
	} {
		for _, sys := range []sim.System{sim.SysBaseline, sim.SysDORA} {
			b.Run(wl.name+"/"+sys.String(), func(b *testing.B) {
				var r sim.Result
				for i := 0; i < b.N; i++ {
					r = sim.Run(sim.Config{Machine: sim.DefaultMachine(), Threads: 64,
						Profile: wl.spec.Profile(sys, costs), Duration: 50 * time.Millisecond})
				}
				b.ReportMetric(r.LockMgrFraction()*100, "lockmgr%")
				b.ReportMetric(r.Fraction(sim.CompWork)*100, "work%")
				b.ReportMetric(r.Fraction(sim.CompDORA)*100, "dora%")
			})
		}
	}
}

// --- Figure 3: inside the lock manager (TPC-B, Baseline) ----------------------

func BenchmarkFig3_LockMgrBreakdown(b *testing.B) {
	env := benchTPCB(b)
	col := metrics.NewCollector()
	env.Engine.SetCollector(col)
	defer env.Engine.SetCollector(nil)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.Driver.RunBaseline(env.Engine, tpcb.AccountUpdate, rng, 0); err != nil && !isAbort(err) {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	lb := col.LockMgrBreakdown()
	b.ReportMetric(lb.Acquire*100, "acquire%")
	b.ReportMetric(lb.Release*100, "release%")
	b.ReportMetric((lb.AcquireContention+lb.ReleaseContention)*100, "contention%")
}

// --- Figure 4: the Payment transaction flow graph -----------------------------

func BenchmarkFig4_PaymentFlowGraph(b *testing.B) {
	// Building the Payment flow graph: 2 phases, 4 actions (warehouse,
	// district, customer | history), exactly the graph of Figure 4.
	env := benchTPCC(b)
	sys := env.DORA
	var phases, actions int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := sys.NewTransaction()
		tx.Add(0, &dora.Action{Table: "WAREHOUSE", Key: dora.Key(dora.Int(1)), Mode: dora.Exclusive, Work: func(*dora.Scope) error { return nil }})
		tx.Add(0, &dora.Action{Table: "DISTRICT", Key: dora.Key(dora.Int(1)), Mode: dora.Exclusive, Work: func(*dora.Scope) error { return nil }})
		tx.Add(0, &dora.Action{Table: "CUSTOMER", Key: dora.Key(dora.Int(1)), Mode: dora.Exclusive, Work: func(*dora.Scope) error { return nil }})
		tx.Add(1, &dora.Action{Table: "HISTORY", Key: dora.Key(dora.Int(1)), Mode: dora.Exclusive, Work: func(*dora.Scope) error { return nil }})
		phases, actions = tx.NumPhases(), tx.NumActions()
	}
	b.ReportMetric(float64(phases), "phases")
	b.ReportMetric(float64(actions), "actions")
}

// --- Figure 5: locks acquired per 100 transactions ----------------------------

func BenchmarkFig5_LockCensus(b *testing.B) {
	b.Run("TM1", func(b *testing.B) {
		env := benchTM1(b)
		b.Run("Baseline", func(b *testing.B) { runMixCensus(b, env, harness.Baseline) })
		b.Run("DORA", func(b *testing.B) { runMixCensus(b, env, harness.DORA) })
	})
	b.Run("TPCB", func(b *testing.B) {
		env := benchTPCB(b)
		b.Run("Baseline", func(b *testing.B) { runMixCensus(b, env, harness.Baseline) })
		b.Run("DORA", func(b *testing.B) { runMixCensus(b, env, harness.DORA) })
	})
	b.Run("TPCC-OrderStatus", func(b *testing.B) {
		env := benchTPCC(b)
		b.Run("Baseline", func(b *testing.B) { runTxns(b, env, harness.Baseline, tpcc.OrderStatus) })
		b.Run("DORA", func(b *testing.B) { runTxns(b, env, harness.DORA, tpcc.OrderStatus) })
	})
}

func runMixCensus(b *testing.B, env *harness.Bench, system harness.SystemKind) {
	b.Helper()
	col := metrics.NewCollector()
	env.Engine.SetCollector(col)
	defer env.Engine.SetCollector(nil)
	rng := rand.New(rand.NewSource(11))
	mix := env.Driver.Mix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := mix.Pick(rng)
		var err error
		if system == harness.DORA {
			err = env.Driver.RunDORA(env.DORA, kind, rng, 0)
		} else {
			err = env.Driver.RunBaseline(env.Engine, kind, rng, 0)
		}
		if err != nil && !isAbort(err) {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	census := col.LockCensus()
	n := float64(b.N)
	b.ReportMetric(float64(census[metrics.RowLock])*100/n, "rowlocks/100txn")
	b.ReportMetric(float64(census[metrics.HigherLevelLock])*100/n, "higherlocks/100txn")
	b.ReportMetric(float64(census[metrics.LocalLock])*100/n, "locallocks/100txn")
}

// --- Figure 6: throughput as the offered load grows ---------------------------

func BenchmarkFig6_Throughput(b *testing.B) {
	costs := sim.DefaultCosts()
	machine := sim.DefaultMachine()
	for _, wl := range []struct {
		name string
		spec sim.TxnSpec
	}{
		{"TM1", sim.TM1Mix()},
		{"TPCB", sim.TPCBAccountUpdate()},
		{"TPCC-OrderStatus", sim.TPCCOrderStatus()},
	} {
		for _, sys := range []sim.System{sim.SysBaseline, sim.SysDORA} {
			b.Run(wl.name+"/"+sys.String(), func(b *testing.B) {
				var at100, at150 float64
				for i := 0; i < b.N; i++ {
					r100 := sim.Run(sim.Config{Machine: machine, Threads: machine.Contexts,
						Profile: wl.spec.Profile(sys, costs), Duration: 50 * time.Millisecond})
					r150 := sim.Run(sim.Config{Machine: machine, Threads: machine.Contexts * 3 / 2,
						Profile: wl.spec.Profile(sys, costs), Duration: 50 * time.Millisecond})
					at100, at150 = r100.Throughput, r150.Throughput
				}
				b.ReportMetric(at100/1000, "ktps@100%")
				b.ReportMetric(at150/1000, "ktps@150%")
			})
		}
	}
}

// --- Figure 7: single-client response times ------------------------------------

func BenchmarkFig7_ResponseTime(b *testing.B) {
	env := benchTPCC(b)
	for _, kind := range []string{tpcc.Payment, tpcc.OrderStatus, tpcc.NewOrder} {
		b.Run(kind+"/Baseline", func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < b.N; i++ {
				if err := env.Driver.RunBaseline(env.Engine, kind, rng, 0); err != nil && !isAbort(err) {
					b.Fatal(err)
				}
			}
		})
		b.Run(kind+"/DORA", func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < b.N; i++ {
				if err := env.Driver.RunDORA(env.DORA, kind, rng, 0); err != nil && !isAbort(err) {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 8: peak throughput under perfect admission control ----------------

func BenchmarkFig8_Peak(b *testing.B) {
	costs := sim.DefaultCosts()
	machine := sim.DefaultMachine()
	loads := sim.DefaultLoadPoints(machine)
	for _, wl := range []struct {
		name string
		spec sim.TxnSpec
	}{
		{"TM1", sim.TM1Mix()},
		{"TPCB", sim.TPCBAccountUpdate()},
		{"TPCC-Payment", sim.TPCCPayment()},
		{"TPCC-OrderStatus", sim.TPCCOrderStatus()},
		{"TPCC-NewOrder", sim.TPCCNewOrder()},
	} {
		b.Run(wl.name, func(b *testing.B) {
			var baselinePeak, doraPeak sim.Point
			for i := 0; i < b.N; i++ {
				baseSeries := sim.LoadSweep("b", machine, wl.spec.Baseline(costs), loads, 30*time.Millisecond, 1)
				doraSeries := sim.LoadSweep("d", machine, wl.spec.DORA(costs), loads, 30*time.Millisecond, 1)
				baselinePeak, doraPeak = baseSeries.Peak(), doraSeries.Peak()
			}
			b.ReportMetric(doraPeak.Result.Throughput/baselinePeak.Result.Throughput, "peak-speedup")
			b.ReportMetric(baselinePeak.CPUUtil*100, "baseline-util@peak%")
			b.ReportMetric(doraPeak.CPUUtil*100, "dora-util@peak%")
		})
	}
}

// --- Figure 10: record access traces -------------------------------------------

func BenchmarkFig10_AccessTrace(b *testing.B) {
	env := benchTPCC(b)
	rec := engine.NewTraceRecorder()
	env.Engine.SetTraceHook(rec.Record)
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.Driver.RunDORA(env.DORA, tpcc.Payment, rng, i); err != nil && !isAbort(err) {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	env.Engine.SetTraceHook(nil)
	events := rec.Events()
	b.ReportMetric(float64(len(events))/float64(b.N), "accesses/txn")
}

// --- Figure 11: high-abort transactions, DORA-P vs DORA-S ----------------------

func BenchmarkFig11_AbortPlans(b *testing.B) {
	env := benchTM1(b)
	for _, kind := range []string{tm1.UpdateSubscriberDataParallel, tm1.UpdateSubscriberDataSerial} {
		b.Run(kind, func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			aborted := 0
			for i := 0; i < b.N; i++ {
				if err := env.Driver.RunDORA(env.DORA, kind, rng, 0); err != nil {
					if isAbort(err) {
						aborted++
						continue
					}
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(aborted)/float64(b.N)*100, "abort%")
		})
	}
	b.Run("Baseline", func(b *testing.B) {
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < b.N; i++ {
			if err := env.Driver.RunBaseline(env.Engine, tm1.UpdateSubscriberData, rng, 0); err != nil && !isAbort(err) {
				b.Fatal(err)
			}
		}
	})
	// The simulated 64-context machine shows the Figure 11 ordering:
	// DORA-S > Baseline > DORA-P in sustained throughput at saturation.
	b.Run("Simulated", func(b *testing.B) {
		costs := sim.DefaultCosts()
		var s, p float64
		for i := 0; i < b.N; i++ {
			rs := sim.Run(sim.Config{Machine: sim.DefaultMachine(), Threads: 96,
				Profile: sim.TM1UpdateSubscriberData(true).DORA(costs), Duration: 30 * time.Millisecond})
			rp := sim.Run(sim.Config{Machine: sim.DefaultMachine(), Threads: 96,
				Profile: sim.TM1UpdateSubscriberData(false).DORA(costs), Duration: 30 * time.Millisecond})
			s, p = rs.Throughput, rp.Throughput
		}
		b.ReportMetric(s/p, "serial-over-parallel")
	})
}

// --- Pipeline microbenchmarks ---------------------------------------------------

// BenchmarkExecutorQueue measures the executor message pipeline: no-op
// single-action transactions hammer a small executor pool, and the reported
// latchacq/msg metric is the consumer-side queue-latch acquisitions per
// message. The batched drain serves every pending message per acquisition,
// so the value is below the 1.0 that the one-dequeue-per-message design pays.
func BenchmarkExecutorQueue(b *testing.B) {
	eng := dora.NewEngine(dora.EngineConfig{})
	defer eng.Close()
	if _, err := eng.CreateTable(dora.TableDef{
		Name:       "Q",
		Schema:     dora.NewSchema(dora.Column{Name: "id", Kind: dora.KindInt}),
		PrimaryKey: []string{"id"},
	}); err != nil {
		b.Fatal(err)
	}
	sys := dora.NewSystem(eng, dora.SystemConfig{})
	defer sys.Stop()
	if err := sys.BindTableInts("Q", 0, 1023, 4); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.SetParallelism(8) // overlapping submitters even on small hosts
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := next.Add(1) % 1024
			tx := sys.NewTransaction()
			tx.Add(0, &dora.Action{Table: "Q", Key: dora.Key(dora.Int(k)), Mode: dora.Shared,
				Work: func(*dora.Scope) error { return nil }})
			if err := tx.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := sys.Stats()
	if st.MessagesProcessed > 0 {
		b.ReportMetric(float64(st.BatchesDrained)/float64(st.MessagesProcessed), "latchacq/msg")
		b.ReportMetric(float64(st.MessagesProcessed)/float64(st.BatchesDrained), "msgs/batch")
	}
}

// BenchmarkWALAppendParallel measures ns/append through the single-latch
// append path (every appender takes the buffer mutex and encodes inside it)
// as the appender count grows.
func BenchmarkWALAppendParallel(b *testing.B) {
	payload := []byte("0123456789abcdef0123456789abcdef0123456789abcdef") // ~TPC-C update image
	for _, procs := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", procs), func(b *testing.B) {
			m := wal.NewManager()
			defer m.Close()
			// Manual fan-out instead of RunParallel: the goroutine count is
			// the variable under test, so it must be exact, not a multiple of
			// GOMAXPROCS.
			var txn atomic.Uint64
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / procs
			if per == 0 {
				per = 1
			}
			for g := 0; g < procs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := &wal.Record{Type: wal.RecUpdate, After: payload}
					for i := 0; i < per; i++ {
						r.Txn = wal.TxnID(txn.Add(1))
						if _, err := m.Append(r); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkGroupCommit measures the WAL commit pipeline under concurrent
// committers, with and without a modeled device-write latency. commits/flush
// is the average commit group one device write makes durable.
func BenchmarkGroupCommit(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		delay time.Duration
	}{
		{"NoDelay", 0},
		{"100usDevice", 100 * time.Microsecond},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			m := wal.NewManager()
			defer m.Close()
			m.SetFlushDelay(cfg.delay)
			var txn atomic.Uint64
			b.SetParallelism(8) // overlapping committers even on small hosts
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					id := txn.Add(1)
					lsn, err := m.Append(&wal.Record{Txn: wal.TxnID(id), Type: wal.RecCommit})
					if err != nil {
						b.Fatal(err)
					}
					m.Flush(lsn)
				}
			})
			b.StopTimer()
			st := m.FlushStats()
			if st.Flushes > 0 {
				b.ReportMetric(float64(st.CommitsFlushed)/float64(st.Flushes), "commits/flush")
			}
		})
	}
}

// BenchmarkTM1Throughput is the end-to-end comparison: the full TM1 mix on
// Baseline and DORA with concurrent closed-loop clients. Besides ns/op (the
// inverse of throughput), the DORA run reports the pipeline-efficiency
// metrics: messages per queue drain and commits per log flush.
func BenchmarkTM1Throughput(b *testing.B) {
	env := benchTM1(b)
	for _, sysKind := range []harness.SystemKind{harness.Baseline, harness.DORA} {
		b.Run(sysKind.String(), func(b *testing.B) {
			col := metrics.NewCollector()
			env.Engine.SetCollector(col)
			defer env.Engine.SetCollector(nil)
			before := env.Engine.Log().FlushStats()
			mix := env.Driver.Mix()
			var seed atomic.Int64
			b.SetParallelism(8) // concurrent closed-loop clients even on small hosts
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1) * 7919))
				for pb.Next() {
					kind := mix.Pick(rng)
					var err error
					if sysKind == harness.DORA {
						err = env.Driver.RunDORA(env.DORA, kind, rng, 0)
					} else {
						err = env.Driver.RunBaseline(env.Engine, kind, rng, 0)
					}
					if err != nil && !isAbort(err) {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			after := env.Engine.Log().FlushStats()
			if f := after.Flushes - before.Flushes; f > 0 {
				b.ReportMetric(float64(after.CommitsFlushed-before.CommitsFlushed)/float64(f), "commits/flush")
			}
			if eb := col.ExecutorBatches(); eb.Count > 0 {
				b.ReportMetric(eb.Mean(), "msgs/drain")
			}
		})
	}
}

// BenchmarkTxnStartAllocs measures allocations on the transaction start hot
// path (rvp slice, participants map, shared map — all pooled), using a
// two-phase flow that exercises every pooled structure.
func BenchmarkTxnStartAllocs(b *testing.B) {
	env := benchTM1(b)
	sys := env.DORA
	key := dora.Key(dora.Int(123))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := sys.NewTransaction()
		tx.Add(0, &dora.Action{Table: "SUBSCRIBER", Key: key, Mode: dora.Shared,
			Work: func(s *dora.Scope) error {
				s.Put("k", 1)
				return nil
			}})
		tx.Add(1, &dora.Action{Table: "SUBSCRIBER", Key: key, Mode: dora.Shared,
			Work: func(s *dora.Scope) error {
				_, _ = s.Get("k")
				return nil
			}})
		if err := tx.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------------

// BenchmarkAblation_CentralVsLocal compares the cost of coordinating one
// record update through the centralized lock manager (hierarchical locking)
// versus DORA's thread-local lock table.
func BenchmarkAblation_CentralVsLocal(b *testing.B) {
	env := benchTM1(b)
	b.Run("Centralized", func(b *testing.B) { runTxns(b, env, harness.Baseline, tm1.UpdateLocation) })
	b.Run("ThreadLocal", func(b *testing.B) { runTxns(b, env, harness.DORA, tm1.UpdateLocation) })
}

// BenchmarkAblation_ExecutorCount sweeps the number of executors per table.
func BenchmarkAblation_ExecutorCount(b *testing.B) {
	for _, execs := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "1", 2: "2", 4: "4", 8: "8"}[execs], func(b *testing.B) {
			env, err := harness.Setup(tm1.New(1000), execs, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.Driver.RunDORA(env.DORA, tm1.GetSubscriberData, rng, 0); err != nil && !isAbort(err) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ActionMerge compares the merged probe+update action the
// paper recommends against splitting it into two actions separated by an RVP.
func BenchmarkAblation_ActionMerge(b *testing.B) {
	env := benchTM1(b)
	sys := env.DORA
	key := dora.Key(dora.Int(77))
	run := func(b *testing.B, split bool) {
		for i := 0; i < b.N; i++ {
			tx := sys.NewTransaction()
			probePhase := 0
			updatePhase := 0
			if split {
				updatePhase = 1
			}
			tx.Add(probePhase, &dora.Action{Table: "SUBSCRIBER", Key: key, Mode: dora.Exclusive,
				Work: func(s *dora.Scope) error {
					_, err := s.Probe("SUBSCRIBER", key)
					return err
				}})
			tx.Add(updatePhase, &dora.Action{Table: "SUBSCRIBER", Key: key, Mode: dora.Exclusive,
				Work: func(s *dora.Scope) error {
					return s.Update("SUBSCRIBER", key, func(tu dora.Tuple) (dora.Tuple, error) {
						tu[3] = dora.Int(tu[3].Int + 1)
						return tu, nil
					})
				}})
			if err := tx.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("MergedSinglePhase", func(b *testing.B) { run(b, false) })
	b.Run("SplitTwoPhases", func(b *testing.B) { run(b, true) })
}
