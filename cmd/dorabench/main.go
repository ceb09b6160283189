// Command dorabench regenerates the figures of the paper's evaluation
// section. Utilization sweeps, time breakdowns at saturation, and peak
// throughput searches run on the multicore simulator (the stand-in for the
// paper's 64-context Sun Niagara II); lock censuses, flow graphs, single
// client response times, and access traces run on the real engine.
//
// Usage:
//
//	dorabench -fig all
//	dorabench -fig 1a -contexts 64
//	dorabench -fig 5 -subscribers 5000
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/harness"
	"dora/internal/metrics"
	"dora/internal/sim"
	"dora/internal/workload"
	"dora/internal/workload/tm1"
	"dora/internal/workload/tpcb"
	"dora/internal/workload/tpcc"
)

type options struct {
	fig         string
	contexts    int
	quantum     time.Duration
	simDuration time.Duration
	subscribers int64
	warehouses  int64
	branches    int64
	executors   int
	txns        int
	seed        int64

	skewWarehouses int64
	skewWindows    int
	skewWindow     time.Duration
	skewWorkers    int
	skewJSON       string

	durabilityJSON  string
	logdir          string
	crashChild      bool
	crashCommits    uint64
	crashTimeout    time.Duration
	crashCheckpoint time.Duration
	crashJSON       string

	htapScanners int
	htapWorkers  int
	htapRounds   int
	htapWindow   time.Duration
	htapPause    time.Duration
	htapJSON     string
	htapTPSGate  bool

	overloadRate     int
	overloadDuration time.Duration
	overloadInflight int
	overloadJSON     string
}

func main() {
	var opt options
	flag.StringVar(&opt.fig, "fig", "all", "figure to regenerate: 1a,1b,1c,2,3,4,5,6,7,8,10,11,secondary,skew,durability,crash,htap,overload,check or 'all'")
	flag.IntVar(&opt.contexts, "contexts", 64, "simulated hardware contexts")
	flag.DurationVar(&opt.quantum, "quantum", 10*time.Millisecond, "simulated OS scheduling quantum")
	flag.DurationVar(&opt.simDuration, "sim-duration", 300*time.Millisecond, "simulated time per load point")
	flag.Int64Var(&opt.subscribers, "subscribers", 5000, "TM1 subscribers for real-engine experiments")
	flag.Int64Var(&opt.warehouses, "warehouses", 2, "TPC-C warehouses for real-engine experiments")
	flag.Int64Var(&opt.branches, "branches", 4, "TPC-B branches for real-engine experiments")
	flag.IntVar(&opt.executors, "executors", 4, "DORA executors per table (real engine)")
	flag.IntVar(&opt.txns, "txns", 2000, "transactions per real-engine measurement")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed")
	flag.Int64Var(&opt.skewWarehouses, "skew-warehouses", 16, "TPC-C warehouses for the skew benchmark")
	flag.IntVar(&opt.skewWindows, "skew-windows", 10, "measurement windows for the skew benchmark (hot set shifts at the midpoint)")
	flag.DurationVar(&opt.skewWindow, "skew-window", 400*time.Millisecond, "duration of one skew-benchmark window")
	flag.IntVar(&opt.skewWorkers, "skew-workers", 8, "closed-loop clients for the skew benchmark")
	flag.StringVar(&opt.skewJSON, "skew-json", "", "write the skew-benchmark summary to this JSON file")
	flag.StringVar(&opt.durabilityJSON, "durability-json", "", "write the durability-benchmark summary to this JSON file")
	flag.StringVar(&opt.logdir, "logdir", "", "WAL directory for the crash-restart child process")
	flag.BoolVar(&opt.crashChild, "crash-child", false, "internal: run as the crash-restart child (load a durable TPC-C engine in -logdir and run the mix until killed)")
	flag.Uint64Var(&opt.crashCommits, "crash-commits", 300, "commits the crash-restart child must report before the parent SIGKILLs it")
	flag.DurationVar(&opt.crashTimeout, "crash-timeout", 120*time.Second, "how long the crash-restart parent waits for the child to reach -crash-commits")
	flag.DurationVar(&opt.crashCheckpoint, "crash-checkpoint", 0, "background fuzzy-checkpoint cadence for the crash-restart child (0 disables checkpointing)")
	flag.StringVar(&opt.crashJSON, "crash-json", "", "write the recovery-time-vs-log-length sweep to this JSON file")
	flag.IntVar(&opt.htapScanners, "htap-scanners", 2, "concurrent analytical scanners for the HTAP benchmark")
	flag.IntVar(&opt.htapWorkers, "htap-workers", 4, "closed-loop OLTP clients for the HTAP benchmark")
	flag.IntVar(&opt.htapRounds, "htap-rounds", 7, "interleaved measurement windows per HTAP arm (median taken)")
	flag.DurationVar(&opt.htapWindow, "htap-window", 500*time.Millisecond, "duration of one HTAP measurement window")
	flag.DurationVar(&opt.htapPause, "htap-pause", 400*time.Millisecond, "interval between HTAP scan-pass starts per scanner (a dashboard-style refresh cadence)")
	flag.StringVar(&opt.htapJSON, "htap-json", "", "write the HTAP-benchmark summary to this JSON file")
	flag.BoolVar(&opt.htapTPSGate, "htap-tps-gate", true, "gate the HTAP benchmark on throughput degradation bounds (disable on noisy/CI hosts)")
	flag.IntVar(&opt.overloadRate, "overload-rate", 0, "open-loop arrival rate per second for the overload benchmark (0 calibrates to 3x measured capacity)")
	flag.DurationVar(&opt.overloadDuration, "overload-duration", 1500*time.Millisecond, "duration of one overload/chaos measurement window")
	flag.IntVar(&opt.overloadInflight, "overload-inflight", 32, "admission-control credit pool for the overload benchmark's on arm")
	flag.StringVar(&opt.overloadJSON, "overload-json", "", "write the overload/chaos-benchmark summary to this JSON file")
	flag.Parse()

	if opt.crashChild {
		if err := runCrashChild(opt); err != nil {
			fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
			os.Exit(1)
		}
		return
	}

	figs := map[string]func(options) error{
		"1a": fig1a, "1b": fig1bc, "1c": fig1bc, "2": fig2, "3": fig3,
		"4": fig4, "5": fig5, "6": fig6, "7": fig7, "8": fig8,
		"10": fig10, "11": fig11, "secondary": figSecondary, "check": figCheck,
		"skew": figSkew, "durability": figDurability, "crash": figCrash,
		"htap": figHTAP, "overload": figOverload,
	}
	if opt.fig == "all" {
		order := []string{"1a", "1b", "2", "3", "4", "5", "6", "7", "8", "10", "11", "secondary", "skew", "durability", "htap", "overload", "check"}
		for _, f := range order {
			if err := figs[f](opt); err != nil {
				fmt.Fprintf(os.Stderr, "figure %s: %v\n", f, err)
				os.Exit(1)
			}
		}
		return
	}
	fn, ok := figs[opt.fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", opt.fig)
		os.Exit(2)
	}
	if err := fn(opt); err != nil {
		fmt.Fprintf(os.Stderr, "figure %s: %v\n", opt.fig, err)
		os.Exit(1)
	}
}

func (o options) machine() sim.MachineConfig {
	return sim.MachineConfig{Contexts: o.contexts, Quantum: o.quantum}
}

func header(title string) {
	fmt.Printf("\n# %s\n", title)
}

// fig1a: throughput per CPU utilization as utilization grows (simulated).
func fig1a(o options) error {
	header("Figure 1a — TM1 GetSubscriberData: throughput / CPU utilization vs CPU utilization")
	costs := sim.DefaultCosts()
	spec := sim.TM1GetSubscriberData()
	loads := sim.DefaultLoadPoints(o.machine())
	fmt.Println("system,cpu_util_pct,throughput_ktps,throughput_per_util")
	for _, sys := range []sim.System{sim.SysBaseline, sim.SysDORA} {
		series := sim.LoadSweep(sys.String(), o.machine(), spec.Profile(sys, costs), loads, o.simDuration, o.seed)
		for _, p := range series.Points {
			perUtil := 0.0
			if p.CPUUtil > 0 {
				perUtil = p.Result.Throughput / (p.CPUUtil * 100)
			}
			fmt.Printf("%s,%.0f,%.1f,%.1f\n", sys, p.CPUUtil*100, p.Result.Throughput/1000, perUtil/1000)
		}
	}
	return nil
}

// fig1bc: time breakdowns vs utilization for Baseline (1b) and DORA (1c).
func fig1bc(o options) error {
	header("Figure 1b/1c — TM1 GetSubscriberData: time breakdown vs CPU utilization")
	costs := sim.DefaultCosts()
	spec := sim.TM1GetSubscriberData()
	loads := sim.DefaultLoadPoints(o.machine())
	fmt.Println("system,cpu_util_pct,work_pct,lockmgr_pct,lockmgr_cont_pct,dora_pct,other_pct")
	for _, sys := range []sim.System{sim.SysBaseline, sim.SysDORA} {
		series := sim.LoadSweep(sys.String(), o.machine(), spec.Profile(sys, costs), loads, o.simDuration, o.seed)
		for _, p := range series.Points {
			r := p.Result
			lockUseful := r.Fraction(sim.CompLockMgrAcquire) + r.Fraction(sim.CompLockMgrRelease)
			other := r.Fraction(sim.CompLog) + r.Fraction(sim.CompOtherContention)
			fmt.Printf("%s,%.0f,%.1f,%.1f,%.1f,%.1f,%.1f\n",
				sys, p.CPUUtil*100,
				r.Fraction(sim.CompWork)*100, lockUseful*100,
				r.Fraction(sim.CompLockMgrContention)*100,
				r.Fraction(sim.CompDORA)*100, other*100)
		}
	}
	return nil
}

// fig2: time breakdowns at full utilization for TM1 and TPC-C OrderStatus.
func fig2(o options) error {
	header("Figure 2 — time breakdown at 100% CPU utilization")
	costs := sim.DefaultCosts()
	fmt.Println("workload,system,work_pct,lockmgr_pct,lockmgr_cont_pct,dora_pct,other_pct")
	for _, wl := range []struct {
		name string
		spec sim.TxnSpec
	}{{"TM1", sim.TM1Mix()}, {"TPC-C OrderStatus", sim.TPCCOrderStatus()}} {
		for _, sys := range []sim.System{sim.SysBaseline, sim.SysDORA} {
			r := sim.Run(sim.Config{Machine: o.machine(), Threads: o.contexts,
				Profile: wl.spec.Profile(sys, costs), Duration: o.simDuration, Seed: o.seed})
			lockUseful := r.Fraction(sim.CompLockMgrAcquire) + r.Fraction(sim.CompLockMgrRelease)
			other := r.Fraction(sim.CompLog) + r.Fraction(sim.CompOtherContention)
			fmt.Printf("%s,%s,%.1f,%.1f,%.1f,%.1f,%.1f\n", wl.name, sys,
				r.Fraction(sim.CompWork)*100, lockUseful*100,
				r.Fraction(sim.CompLockMgrContention)*100,
				r.Fraction(sim.CompDORA)*100, other*100)
		}
	}
	return nil
}

// fig3: inside the lock manager of the Baseline running TPC-B as load grows.
func fig3(o options) error {
	header("Figure 3 — inside the Baseline lock manager, TPC-B, load sweep")
	costs := sim.DefaultCosts()
	spec := sim.TPCBAccountUpdate()
	loads := sim.DefaultLoadPoints(o.machine())
	fmt.Println("cpu_util_pct,acquire_pct,release_pct,contention_pct,other_pct")
	series := sim.LoadSweep("Baseline", o.machine(), spec.Baseline(costs), loads, o.simDuration, o.seed)
	for _, p := range series.Points {
		r := p.Result
		acq := r.Fraction(sim.CompLockMgrAcquire)
		rel := r.Fraction(sim.CompLockMgrRelease)
		cont := r.Fraction(sim.CompLockMgrContention)
		total := acq + rel + cont
		if total == 0 {
			continue
		}
		fmt.Printf("%.0f,%.1f,%.1f,%.1f,%.1f\n", p.CPUUtil*100,
			acq/total*100, rel/total*100, cont/total*100, 0.0)
	}

	fmt.Println("\n# real-engine cross-check (acquire/release/contention split on the host):")
	env, err := harness.Setup(newTPCB(o), o.executors, o.seed)
	if err != nil {
		return err
	}
	defer env.Close()
	// Performance figures skip the per-run invariant scan (it grows with the
	// accumulated history); `-fig check` is the correctness gate.
	res := env.Run(harness.Config{System: harness.Baseline, Workers: 4, TxnsPerWorker: o.txns / 4, Seed: o.seed, SkipCheck: true})
	fmt.Printf("acquire=%.1f%% acquire_cont=%.1f%% release=%.1f%% release_cont=%.1f%% other=%.1f%%\n",
		res.LockMgr.Acquire*100, res.LockMgr.AcquireContention*100,
		res.LockMgr.Release*100, res.LockMgr.ReleaseContention*100, res.LockMgr.Other*100)
	return nil
}

// fig4: the Payment transaction flow graph.
func fig4(o options) error {
	header("Figure 4 — transaction flow graph of TPC-C Payment")
	fmt.Println(`phase 0: R+U(WAREHOUSE[w_id])   -- merged probe+update, identifier = w_id
phase 0: R+U(DISTRICT[w_id])    -- merged probe+update, identifier = w_id
phase 0: R+U(CUSTOMER[c_w_id])  -- by id or by-name secondary index; identifier = c_w_id
---- RVP1 (3 actions) ----
phase 1: I(HISTORY[w_id])       -- insert, takes the centralized row lock (§4.2.1)
---- RVP2 (terminal: commit) ----`)
	return nil
}

// fig5: locks acquired per 100 transactions, by class, real engine.
func fig5(o options) error {
	header("Figure 5 — locks acquired per 100 transactions (real engine)")
	fmt.Println("workload,system,row_level,higher_level,thread_local")
	type wl struct {
		name   string
		driver workload.Driver
		mix    workload.Mix
	}
	wls := []wl{
		{"TM1", tm1.New(o.subscribers), nil},
		{"TPC-B", newTPCB(o), nil},
		{"TPC-C OrderStatus", newTPCC(o), workload.Mix{{Name: tpcc.OrderStatus, Weight: 100}}},
	}
	for _, w := range wls {
		env, err := harness.Setup(w.driver, o.executors, o.seed)
		if err != nil {
			return err
		}
		for _, sys := range []harness.SystemKind{harness.Baseline, harness.DORA} {
			res := env.Run(harness.Config{System: sys, Workers: 2, TxnsPerWorker: o.txns / 2,
				Mix: w.mix, Seed: o.seed, SkipCheck: true})
			fmt.Printf("%s,%s,%.0f,%.0f,%.0f\n", w.name, sys,
				res.LocksPer100Txns[metrics.RowLock],
				res.LocksPer100Txns[metrics.HigherLevelLock],
				res.LocksPer100Txns[metrics.LocalLock])
		}
		env.Close()
	}
	return nil
}

// fig6: throughput as offered CPU load grows (simulated).
func fig6(o options) error {
	header("Figure 6 — throughput vs offered CPU load")
	costs := sim.DefaultCosts()
	loads := sim.DefaultLoadPoints(o.machine())
	fmt.Println("workload,system,offered_load_pct,throughput_ktps")
	for _, wl := range []struct {
		name string
		spec sim.TxnSpec
	}{{"TM1", sim.TM1Mix()}, {"TPC-B", sim.TPCBAccountUpdate()}, {"TPC-C OrderStatus", sim.TPCCOrderStatus()}} {
		for _, sys := range []sim.System{sim.SysBaseline, sim.SysDORA} {
			series := sim.LoadSweep(sys.String(), o.machine(), wl.spec.Profile(sys, costs), loads, o.simDuration, o.seed)
			for _, p := range series.Points {
				fmt.Printf("%s,%s,%.0f,%.1f\n", wl.name, sys, p.OfferedLoad*100, p.Result.Throughput/1000)
			}
		}
	}
	return nil
}

// fig7: single-client response times, normalized to the Baseline (real engine).
func fig7(o options) error {
	header("Figure 7 — single-client response times (normalized to Baseline)")
	fmt.Println("transaction,baseline_us,dora_us,normalized_dora")
	type entry struct {
		name   string
		driver workload.Driver
		kind   string
	}
	entries := []entry{
		{"TM1 GetNewDestination", tm1.New(o.subscribers), tm1.GetNewDestination},
		{"TPC-C Payment", newTPCC(o), tpcc.Payment},
		{"TPC-C NewOrder", newTPCC(o), tpcc.NewOrder},
		{"TPC-C OrderStatus", newTPCC(o), tpcc.OrderStatus},
		{"TPC-C Delivery", newTPCC(o), tpcc.Delivery},
		{"TPC-C StockLevel", newTPCC(o), tpcc.StockLevel},
		{"TPC-B AccountUpdate", newTPCB(o), tpcb.AccountUpdate},
	}
	for _, en := range entries {
		env, err := harness.Setup(en.driver, o.executors, o.seed)
		if err != nil {
			return err
		}
		// The TPC-C load ships every order delivered, so a pure-Delivery mix
		// would measure empty district probes; seed enough undelivered orders
		// before each system's measurement for the deliveries to do real work
		// (each Delivery ships up to one order per district).
		seedUndelivered := func() {
			if en.kind != tpcc.Delivery {
				return
			}
			env.Run(harness.Config{System: harness.Baseline, Workers: 2,
				TxnsPerWorker: 10 * o.txns / 8,
				Mix:           workload.Mix{{Name: tpcc.NewOrder, Weight: 100}},
				Seed:          o.seed, SkipCheck: true})
		}
		mix := workload.Mix{{Name: en.kind, Weight: 100}}
		seedUndelivered()
		base := env.Run(harness.Config{System: harness.Baseline, Workers: 1, TxnsPerWorker: o.txns / 4, Mix: mix, Seed: o.seed, SkipCheck: true})
		seedUndelivered()
		dra := env.Run(harness.Config{System: harness.DORA, Workers: 1, TxnsPerWorker: o.txns / 4, Mix: mix, Seed: o.seed, SkipCheck: true})
		norm := 0.0
		if base.MeanLatency > 0 {
			norm = float64(dra.MeanLatency) / float64(base.MeanLatency)
		}
		fmt.Printf("%s,%.1f,%.1f,%.2f\n", en.name,
			float64(base.MeanLatency.Microseconds()), float64(dra.MeanLatency.Microseconds()), norm)
		env.Close()
	}
	fmt.Println("# note: on a single-CPU host DORA's intra-transaction parallelism cannot shorten")
	fmt.Println("# the critical path; the simulated 64-context machine (fig 8 sweep) shows the")
	fmt.Println("# paper's up-to-60%-lower response times.")
	return nil
}

// fig8: peak throughput with perfect admission control (simulated).
func fig8(o options) error {
	header("Figure 8 — peak throughput under perfect admission control")
	costs := sim.DefaultCosts()
	loads := sim.DefaultLoadPoints(o.machine())
	fmt.Println("workload,baseline_peak_ktps,baseline_util_pct,dora_peak_ktps,dora_util_pct,dora_speedup")
	for _, wl := range []struct {
		name string
		spec sim.TxnSpec
	}{
		{"TM1", sim.TM1Mix()},
		{"TM1 GetSubscriberData", sim.TM1GetSubscriberData()},
		{"TPC-B", sim.TPCBAccountUpdate()},
		{"TPC-C OrderStatus", sim.TPCCOrderStatus()},
		{"TPC-C Payment", sim.TPCCPayment()},
		{"TPC-C NewOrder", sim.TPCCNewOrder()},
	} {
		base := sim.LoadSweep("b", o.machine(), wl.spec.Baseline(costs), loads, o.simDuration, o.seed).Peak()
		dra := sim.LoadSweep("d", o.machine(), wl.spec.DORA(costs), loads, o.simDuration, o.seed).Peak()
		fmt.Printf("%s,%.1f,%.0f,%.1f,%.0f,%.2f\n", wl.name,
			base.Result.Throughput/1000, base.CPUUtil*100,
			dra.Result.Throughput/1000, dra.CPUUtil*100,
			dra.Result.Throughput/base.Result.Throughput)
	}
	return nil
}

// fig10: record access traces of the District table (real engine).
func fig10(o options) error {
	header("Figure 10 — District record accesses by worker thread (TPC-C Payment)")
	for _, sys := range []harness.SystemKind{harness.Baseline, harness.DORA} {
		fmt.Printf("\n## %s (time_ms,worker,district)\n", sys)
		rows, err := collectTrace(o, sys, 400)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(r)
		}
	}
	fmt.Println("\n# Under the Baseline, district accesses are spread over all worker threads")
	fmt.Println("# (uncoordinated); under DORA each district is accessed by exactly one executor.")
	return nil
}

func collectTrace(o options, sys harness.SystemKind, txns int) ([]string, error) {
	driver := tpcc.New(10)
	driver.CustomersPerDistrict = 30
	driver.Items = 100
	env, err := harness.Setup(driver, o.executors, o.seed)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	rec := engine.NewTraceRecorder()
	env.Engine.SetTraceHook(rec.Record)
	defer env.Engine.SetTraceHook(nil)
	env.Run(harness.Config{System: sys, Workers: 10, TxnsPerWorker: txns / 10,
		Mix: workload.Mix{{Name: tpcc.Payment, Weight: 100}}, Seed: o.seed, SkipCheck: true})
	var rows []string
	for _, ev := range rec.Events() {
		if ev.Table != "DISTRICT" {
			continue
		}
		rows = append(rows, fmt.Sprintf("%.2f,%d,%d", float64(ev.When.Microseconds())/1000, ev.WorkerID, ev.Key))
	}
	sort.Strings(rows)
	return rows, nil
}

// fig11: the high-abort UpdateSubscriberData transaction, DORA-P vs DORA-S.
func fig11(o options) error {
	header("Figure 11 — TM1 UpdateSubscriberData (37.5% aborts): Baseline vs DORA-P vs DORA-S")
	costs := sim.DefaultCosts()
	loads := sim.DefaultLoadPoints(o.machine())
	fmt.Println("system,offered_load_pct,throughput_ktps")
	variants := []struct {
		name    string
		profile sim.TxnProfile
	}{
		{"Baseline", sim.TM1UpdateSubscriberData(false).Baseline(costs)},
		{"DORA-P", sim.TM1UpdateSubscriberData(false).DORA(costs)},
		{"DORA-S", sim.TM1UpdateSubscriberData(true).DORA(costs)},
	}
	for _, v := range variants {
		series := sim.LoadSweep(v.name, o.machine(), v.profile, loads, o.simDuration, o.seed)
		for _, p := range series.Points {
			fmt.Printf("%s,%.0f,%.1f\n", v.name, p.OfferedLoad*100, p.Result.Throughput/1000)
		}
	}

	fmt.Println("\n# real-engine cross-check: the resource manager switches to the serial plan")
	env, err := harness.Setup(tm1.New(o.subscribers), o.executors, o.seed)
	if err != nil {
		return err
	}
	defer env.Close()
	rng := rand.New(rand.NewSource(o.seed))
	for i := 0; i < 200; i++ {
		err := env.Driver.RunDORA(env.DORA, tm1.UpdateSubscriberData, rng, 0)
		if err != nil && !errors.Is(err, workload.ErrAborted) {
			return err
		}
	}
	rate, n := env.DORA.PartitionManager().AbortRate(tm1.UpdateSubscriberData)
	fmt.Printf("observed abort rate %.1f%% over %d txns -> plan %s\n",
		rate*100, n, env.DORA.PartitionManager().PlanFor(tm1.UpdateSubscriberData))
	return nil
}

// figSecondary is the intra-transaction-parallelism A/B: the same
// secondary-heavy TPC-C mix (every Payment/OrderStatus selects the customer
// by last name, warehouses drawn zipfian so one warehouse is hot) run with
// secondary actions forced serial on the RVP threads versus dispatched to
// the resolver pool, across worker counts. Besides throughput it reports the
// per-transaction critical-path and RVP-thread-time histogram means — the
// quantities the parallel path is designed to shrink.
func figSecondary(o options) error {
	header("Secondary actions — serial (RVP-thread) vs parallel (resolver pool), skewed by-name mix")
	fmt.Println("mode,workers,tps,mean_us,p95_us,critpath_mean_us,rvpthread_mean_us,secondaries,forwarded")
	mix := workload.Mix{
		{Name: tpcc.NewOrder, Weight: 20},
		{Name: tpcc.Payment, Weight: 35},
		{Name: tpcc.OrderStatus, Weight: 35},
		{Name: tpcc.Delivery, Weight: 10},
	}
	for _, serial := range []bool{true, false} {
		mode := "serial"
		if !serial {
			mode = "parallel"
		}
		d := newTPCC(o)
		d.ByNamePercent = 100
		d.WarehouseZipfTheta = workload.ZipfianTheta
		env, err := harness.Setup(d, o.executors, o.seed)
		if err != nil {
			return err
		}
		if err := env.RebindDORA(dora.Config{SerialSecondaries: serial}, o.executors); err != nil {
			env.Close()
			return err
		}
		for _, w := range []int{1, 2, 4, 8} {
			// System counters are cumulative; report per-run deltas.
			before := env.DORA.Stats()
			res := env.Run(harness.Config{System: harness.DORA, Workers: w,
				TxnsPerWorker: o.txns / (4 * w), Mix: mix, Seed: o.seed, SkipCheck: true})
			if res.Errors > 0 {
				env.Close()
				return fmt.Errorf("secondary A/B (%s, %d workers): %d hard errors", mode, w, res.Errors)
			}
			st := env.DORA.Stats()
			secondaries := st.SecondariesParallel + st.SecondariesInline -
				before.SecondariesParallel - before.SecondariesInline
			fmt.Printf("%s,%d,%.0f,%.0f,%.0f,%.0f,%.0f,%d,%d\n",
				mode, w, res.Throughput,
				float64(res.MeanLatency.Microseconds()), float64(res.P95Latency.Microseconds()),
				res.CriticalPath.Mean(), res.RVPThreadTime.Mean(),
				secondaries, st.ActionsForwarded-before.ActionsForwarded)
		}
		// One invariant scan per mode over everything the sweep committed:
		// a fast-but-wrong parallel path must fail the figure, not pass it.
		if err := env.Driver.Check(env.Engine); err != nil {
			env.Close()
			return fmt.Errorf("secondary A/B (%s): invariants violated: %w", mode, err)
		}
		env.Close()
	}
	return nil
}

// figCheck runs the full five-transaction TPC-C mix (45/43/4/4/4) end to end
// on both execution systems and gates on the consistency-invariant checker:
// any violated invariant fails the command. It is the correctness baseline
// the performance figures rest on.
func figCheck(o options) error {
	header("Consistency check — TPC-C five-transaction mix, both systems")
	fmt.Println("system,committed,aborted,errors,tps,invariants")
	env, err := harness.Setup(newTPCC(o), o.executors, o.seed)
	if err != nil {
		return err
	}
	defer env.Close()
	for _, sys := range []harness.SystemKind{harness.Baseline, harness.DORA} {
		res := env.Run(harness.Config{System: sys, Workers: 4, TxnsPerWorker: o.txns / 4, Seed: o.seed})
		verdict := "ok"
		if !res.Valid() {
			verdict = res.InvariantErr.Error()
		}
		fmt.Printf("%s,%d,%d,%d,%.0f,%s\n",
			sys, res.Committed, res.Aborted, res.Errors, res.Throughput, verdict)
		if !res.Valid() {
			return fmt.Errorf("%s run violated invariants: %w", sys, res.InvariantErr)
		}
		if res.Committed == 0 {
			return fmt.Errorf("%s run committed nothing", sys)
		}
	}
	return nil
}

// skewPhase labels one window of the skew benchmark relative to the hot-set
// shift.
func skewPhase(window, shiftAt int) string {
	switch {
	case window < shiftAt:
		return "pre"
	case window < shiftAt+2:
		return "during"
	default:
		return "post"
	}
}

// skewModeResult summarizes one balancer setting of the skew benchmark.
type skewModeResult struct {
	PreTPS    float64 `json:"pre_tps"`
	DuringTPS float64 `json:"during_tps"`
	PostTPS   float64 `json:"post_tps"`
	Recovery  float64 `json:"recovery"` // post / pre
	Moves     uint64  `json:"moves"`
	// PreImbalance / PostImbalance are the mean balancer imbalance scores
	// (max/mean per-executor load) before the shift and in the post windows —
	// the hardware-independent view of the rebalancing: on a single-CPU host
	// a hot executor cannot drag throughput down (every executor shares the
	// one core), but the load-imbalance recovery is visible on any host.
	PreImbalance  float64 `json:"pre_imbalance"`
	PostImbalance float64 `json:"post_imbalance"`
}

// figSkew is the adaptive-partitioning benchmark: a TPC-C run whose hot
// warehouses (25% of the key space drawing 90% of the traffic) relocate at
// t/2, measured with the rebalancing control loop on versus off. Both modes
// first warm up with the balancer running until the routing rule matches the
// initial hot set (the "pre-shift balanced level"); the off mode then stops
// the control loop, so the shift leaves it permanently degraded while the on
// mode detects the skew and moves the boundaries back under the load. A
// uniform control run checks the balancer's hysteresis: without skew it may
// make at most one spurious boundary move. The figure gates on invariants,
// hard errors, and the spurious-move bound — never on throughput.
func figSkew(o options) error {
	header("Skew — hot TPC-C warehouses shift at t/2: balancer on vs off")
	if o.skewWindows < 6 {
		return fmt.Errorf("skew: need at least 6 windows (2 during + post-shift ones after the midpoint), got %d", o.skewWindows)
	}
	// The schedule fires once progress i/n reaches 0.5, i.e. before window
	// ceil(n/2) — the phase labels must use the same midpoint.
	shiftAt := (o.skewWindows + 1) / 2
	balancerCfg := &dora.BalancerConfig{
		Interval:  20 * time.Millisecond,
		Threshold: 1.4,
		Alpha:     0.4,
		Cooldown:  2,
	}
	newSkewEnv := func(hotspot *workload.Hotspot) (*harness.Bench, error) {
		d := tpcc.New(o.skewWarehouses)
		d.CustomersPerDistrict = 30
		d.Items = 100
		d.WarehouseHotspot = hotspot
		env, err := harness.Setup(d, o.executors, o.seed)
		if err != nil {
			return nil, err
		}
		if err := env.RebindDORA(dora.Config{Balancer: balancerCfg}, o.executors); err != nil {
			env.Close()
			return nil, err
		}
		return env, nil
	}
	window := func(env *harness.Bench) harness.Result {
		return env.Run(harness.Config{System: harness.DORA, Workers: o.skewWorkers,
			Duration: o.skewWindow, Seed: o.seed, SkipCheck: true})
	}
	// Warm up until the balancer has matched the routing rule to the current
	// load (a window with no moves), so both modes measure from the same
	// balanced pre-shift state.
	warmup := func(env *harness.Bench) error {
		for i := 0; i < 6; i++ {
			res := window(env)
			if res.Errors > 0 {
				return fmt.Errorf("skew warmup: %d hard errors", res.Errors)
			}
			if res.BoundaryMoves == 0 {
				return nil
			}
		}
		return nil // still settling; measurement proceeds from here
	}

	fmt.Println("mode,window,phase,tps,moves,imbalance")
	modes := make(map[string]skewModeResult, 2)
	for _, balancerOn := range []bool{false, true} {
		mode := "off"
		if balancerOn {
			mode = "on"
		}
		hotspot := workload.NewHotspot(o.skewWarehouses, 0.25, 0.9)
		hotspot.ShiftAt(0.5, 3*o.skewWarehouses/4)
		env, err := newSkewEnv(hotspot)
		if err != nil {
			return err
		}
		if err := warmup(env); err != nil {
			env.Close()
			return err
		}
		if !balancerOn {
			// Observe-only: the loop keeps publishing the imbalance gauge but
			// no longer reacts, so both arms report comparable telemetry.
			env.DORA.Balancer().SetDryRun(true)
		}
		var sum skewModeResult
		var preN, duringN, postN int
		for i := 0; i < o.skewWindows; i++ {
			hotspot.Advance(float64(i) / float64(o.skewWindows))
			res := window(env)
			if res.Errors > 0 {
				env.Close()
				return fmt.Errorf("skew (%s, window %d): %d hard errors", mode, i, res.Errors)
			}
			phase := skewPhase(i, shiftAt)
			fmt.Printf("%s,%d,%s,%.0f,%d,%.2f\n", mode, i, phase, res.Throughput, res.BoundaryMoves, res.Imbalance)
			sum.Moves += res.BoundaryMoves
			switch phase {
			case "pre":
				sum.PreTPS += res.Throughput
				sum.PreImbalance += res.Imbalance
				preN++
			case "during":
				sum.DuringTPS += res.Throughput
				duringN++
			default:
				sum.PostTPS += res.Throughput
				sum.PostImbalance += res.Imbalance
				postN++
			}
		}
		if err := env.Driver.Check(env.Engine); err != nil {
			env.Close()
			return fmt.Errorf("skew (%s): invariants violated: %w", mode, err)
		}
		env.Close()
		if preN > 0 {
			sum.PreTPS /= float64(preN)
			sum.PreImbalance /= float64(preN)
		}
		if duringN > 0 {
			sum.DuringTPS /= float64(duringN)
		}
		if postN > 0 {
			sum.PostTPS /= float64(postN)
			sum.PostImbalance /= float64(postN)
		}
		if sum.PreTPS > 0 {
			sum.Recovery = sum.PostTPS / sum.PreTPS
		}
		modes[mode] = sum
		fmt.Printf("# %s: pre=%.0f during=%.0f post=%.0f tps, recovery=%.2f, moves=%d, imbalance pre=%.2f post=%.2f\n",
			mode, sum.PreTPS, sum.DuringTPS, sum.PostTPS, sum.Recovery, sum.Moves,
			sum.PreImbalance, sum.PostImbalance)
	}
	fmt.Println("# note: on a single-CPU host a hot executor cannot drag throughput down (all")
	fmt.Println("# executors share the one core), so the load-imbalance recovery above is the")
	fmt.Println("# hardware-independent signal; on multicore the balancer-off arm's post-shift")
	fmt.Println("# throughput stays degraded while the balancer-on arm recovers.")

	// Hysteresis control: a uniform run must not provoke rebalancing.
	uniformEnv, err := newSkewEnv(nil)
	if err != nil {
		return err
	}
	var uniformMoves uint64
	for i := 0; i < 4; i++ {
		res := window(uniformEnv)
		if res.Errors > 0 {
			uniformEnv.Close()
			return fmt.Errorf("skew uniform control: %d hard errors", res.Errors)
		}
		uniformMoves += res.BoundaryMoves
	}
	uniformEnv.Close()
	fmt.Printf("# uniform control: %d spurious boundary moves (allowed: at most 1)\n", uniformMoves)
	if uniformMoves > 1 {
		return fmt.Errorf("skew: balancer made %d spurious moves on a uniform load", uniformMoves)
	}

	if o.skewJSON != "" {
		out := struct {
			Warehouses int64                     `json:"warehouses"`
			Executors  int                       `json:"executors"`
			Windows    int                       `json:"windows"`
			Window     string                    `json:"window"`
			Workers    int                       `json:"workers"`
			Uniform    uint64                    `json:"uniform_spurious_moves"`
			Modes      map[string]skewModeResult `json:"balancer"`
		}{o.skewWarehouses, o.executors, o.skewWindows, o.skewWindow.String(), o.skewWorkers, uniformMoves, modes}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.skewJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", o.skewJSON)
	}
	return nil
}

func newTPCB(o options) *tpcb.Driver {
	d := tpcb.New(o.branches)
	return d
}

func newTPCC(o options) *tpcc.Driver {
	d := tpcc.New(o.warehouses)
	d.CustomersPerDistrict = 60
	d.Items = 200
	return d
}

var _ = strings.TrimSpace // keep strings imported for future formatting needs
