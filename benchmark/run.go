package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dora/benchmark/probes"
	"dora/internal/engine"
	"dora/internal/harness"
	"dora/internal/metrics"
	"dora/internal/wal"
)

// Every probe reports the median of probeReps repetitions of probeRepTime
// each; the 21 timed loops of a pass take about 21 s whatever -seconds is.
const (
	probeReps    = 5
	probeRepTime = 200 * time.Millisecond
)

// subRunCount is the number of sub-runs, each on a fresh set-up, that share
// -seconds in untraced mode.
const subRunCount = 5

// epoch is the zero of every span's clock: the start of the process.
var epoch = time.Now()

// windowLen is the length of the windows a timed run is cut into; its
// throughput is the median window's, which a stall of a few windows (a long
// garbage collection, the host looking away) does not move.
const windowLen = 250 * time.Millisecond

// spanSample keeps one transaction span in spanSample in the trace file;
// aggregates use every span.
const spanSample = 64

// recovery is what reopening a durable workload's log directory measured.
type recovery struct {
	recovery   time.Duration
	records    int
	checkpoint time.Duration
}

// loaded is one completed set-up and what it cost.
type loaded struct {
	bench         *harness.Bench
	logDir        string
	historyLoaded int     // HISTORY rows after the load (durable workload only)
	seconds       float64 // create tables + load + bind executors
}

// setUpTimed sets the workload up from an empty heap, so that an earlier
// set-up's garbage (a 256 MB buffer pool each) neither slows this one down
// nor counts towards peak memory, and returns the heap to that state after
// the load.
func setUpTimed(s spec, seed int64, scratch string) (loaded, error) {
	runtime.GC()
	debug.FreeOSMemory()
	start := time.Now()
	b, dir, err := s.setUp(seed, scratch)
	if err != nil {
		return loaded{}, fmt.Errorf("set-up: %w", err)
	}
	l := loaded{bench: b, logDir: dir, seconds: time.Since(start).Seconds()}
	if s.durable {
		history, err := b.Engine.Table("HISTORY")
		if err != nil {
			l.close() //nolint:errcheck // the table error is the one to report
			return loaded{}, err
		}
		l.historyLoaded = history.NumRecords()
	}
	runtime.GC()
	debug.FreeOSMemory()
	return l, nil
}

// close stops the executors, closes the engine and removes the log directory.
func (l loaded) close() error {
	if l.bench.DORA != nil {
		l.bench.DORA.Stop()
	}
	err := l.bench.Engine.Close()
	if l.logDir != "" {
		if rmErr := os.RemoveAll(l.logDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// subSeed derives the seed of the k-th sub-run from the invocation's seed.
func subSeed(seed int64, k int) int64 { return seed + int64(k)*104729 }

// runWorkload runs one workload in one mode and returns its report.
//
// Untraced (-trace 0), the measured seconds are split over subRunCount sub-runs,
// each on a fresh set-up: set-up (timed), warm-up, timed run, correctness
// gate, and for the durable workload a reopen of its log directory. The
// end-to-end metrics are taken over the sub-runs (see endToEnd): five short
// lives on fresh set-ups say more than one long one, whose in-memory log and
// heap only grow, and every set-up that is timed is also used.
//
// Traced (-trace 1), the probes run first, while the process holds nothing
// else; then one set-up serves an untraced segment and the traced segment
// that is compared with it, half of the measured seconds each.
func runWorkload(o options) (rep *Report, err error) {
	s, err := findSpec(o.workload)
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rmErr := os.RemoveAll(scratch); err == nil {
			err = rmErr
		}
	}()
	rep = &Report{Workload: s.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Correct: true, Env: environment(s)}
	if o.trace == 0 {
		err = rep.runUntraced(s, o, scratch)
	} else {
		err = rep.runTraced(s, o, scratch)
	}
	if err != nil {
		return nil, err
	}
	if rep.Attempted == 0 {
		rep.Attempted, rep.Failed = 1, 1
		rep.problem("no transaction completed inside the measured time")
	}
	rep.FailedShare = float64(rep.Failed) / float64(rep.Attempted)
	for _, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.problem("metric %s is not finite", m.Name)
		}
	}
	return rep, nil
}

func (rep *Report) problem(format string, args ...any) {
	rep.Correct = false
	rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
}

// gate runs the correctness checks after a segment and adds the segment to
// the attempted and failed totals.
func (rep *Report) gate(r *runner, what string, seg *segment) {
	if err := r.check(seg); err != nil {
		rep.problem("%s: %v", what, err)
		seg.failed = seg.attempted // an unhealthy or inconsistent run has no good transaction
	}
	if seg.failed > 0 {
		rep.problem("%s: %d of %d transactions failed, by cause %v", what, seg.failed, seg.attempted, seg.causes)
	}
	rep.Attempted += seg.attempted
	rep.Failed += seg.failed
}

// warmUp runs the discarded warm-up segment.
func (rep *Report) warmUp(r *runner, o options) {
	if warm := r.run(o.warmup, 0, false); warm.unhealthy {
		rep.problem("warm-up: engine left the healthy state, failures by cause %v", warm.causes)
	}
}

// reopenDurable runs the durability self-check of a durable workload, which
// closes the engine; for the others it only closes.
func (rep *Report) reopenDurable(s spec, r *runner, l loaded) (recovery, error) {
	if !s.durable {
		return recovery{}, l.close()
	}
	rec, err := r.reopen(l)
	if err != nil {
		rep.problem("durability check: %v", err)
	}
	return rec, os.RemoveAll(l.logDir)
}

func (rep *Report) runUntraced(s spec, o options, scratch string) error {
	for k := 0; k < o.subRuns; k++ {
		seed := subSeed(o.seed, k)
		l, err := setUpTimed(s, seed, scratch)
		if err != nil {
			return err
		}
		r := newRunner(s, l.bench, seed)
		rep.warmUp(r, o)
		timed := r.run(time.Duration(o.seconds/float64(o.subRuns)*float64(time.Second)), windowLen, false)
		rep.gate(r, fmt.Sprintf("timed run %d", k), timed)
		rep.SubRuns = append(rep.SubRuns, summarize(timed, l.seconds))
		if _, err := rep.reopenDurable(s, r, l); err != nil {
			return err
		}
	}
	rep.Metrics = endToEnd(rep.SubRuns)
	return nil
}

func (rep *Report) runTraced(s spec, o options, scratch string) error {
	probed, probeSpans, err := probeMetricsOf(o, scratch)
	if err != nil {
		return err
	}
	l, err := setUpTimed(s, o.seed, scratch)
	if err != nil {
		return err
	}
	r := newRunner(s, l.bench, o.seed)
	half := time.Duration(o.seconds / 2 * float64(time.Second))
	rep.warmUp(r, o)
	off := r.run(half, 0, false)
	rep.gate(r, "untraced run", off)
	tr := r.runTraced(half)
	rep.gate(r, "traced run", tr.seg)
	rec, err := rep.reopenDurable(s, r, l)
	if err != nil {
		return err
	}
	rep.Metrics = layerMetrics(s, off, tr, probed, rec)
	return WriteChromeTrace(filepath.Join(o.out, "trace-"+s.name+".json"), append(probeSpans, sampleSpans(tr.seg.spans, o.seed)...))
}

// probeMetricsOf returns the probes' metrics: measured now, with one span per
// timed batch, or read from the detail file of an earlier traced invocation
// when the all-workloads mode names one.
func probeMetricsOf(o options, scratch string) ([]Metric, []Span, error) {
	if o.probesFrom != "" {
		data, err := os.ReadFile(o.probesFrom)
		if err != nil {
			return nil, nil, err
		}
		var earlier Report
		if err := json.Unmarshal(data, &earlier); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", o.probesFrom, err)
		}
		var out []Metric
		for _, nu := range probeMetrics {
			for _, m := range earlier.Metrics {
				if m.Name == nu[0] {
					out = append(out, m)
				}
			}
		}
		if len(out) != len(probeMetrics) {
			return nil, nil, fmt.Errorf("%s holds %d of the %d probe metrics", o.probesFrom, len(out), len(probeMetrics))
		}
		return out, nil, nil
	}
	pr, err := probes.Run(probes.Config{Seed: o.seed, Reps: probeReps, RepTime: o.probeRep, Dir: scratch})
	if err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	var out []Metric
	for _, nu := range probeMetrics {
		p := pr[nu[0]]
		out = append(out, Metric{Name: nu[0], Unit: nu[1], Value: p.Median, Q1: p.Q1, Q3: p.Q3, N: uint64(p.Reps)})
	}
	return out, spansOfProbes(pr), nil
}

// subRun is what one timed sub-run contributes to the end-to-end metrics,
// as the detail file records it: the median window's throughput, the latency
// percentiles of every committed transaction, and the process's CPU time
// over the run per transaction.
type subRun struct {
	TPS       float64   `json:"tps"`
	P50us     float64   `json:"p50_us"`
	P99us     float64   `json:"p99_us"`
	CPUus     float64   `json:"cpu_us_per_txn"`
	SetupS    float64   `json:"setup_s"`
	Committed uint64    `json:"committed"`
	Tail      string    `json:"tail"` // the highest percentile the samples support
	WindowTPS []float64 `json:"window_tps"`
}

func summarize(seg *segment, setupSeconds float64) subRun {
	rates := make([]float64, len(seg.windows))
	for i, w := range seg.windows {
		rates[i] = float64(w.committed) / w.dur.Seconds()
	}
	_, tps, _ := probes.Quartiles(rates)
	sub := subRun{
		TPS: tps, P50us: seg.lat.Quantile(0.50) / 1e3, P99us: seg.lat.Quantile(0.99) / 1e3,
		CPUus:  ratio(float64(seg.cpu.Microseconds()), float64(seg.committed)),
		SetupS: setupSeconds, Committed: seg.committed, WindowTPS: rates,
	}
	if p, ok := HighestPercentile(seg.lat.Count(), 10); ok {
		sub.Tail = fmt.Sprintf("p%g = %.1f us", p, seg.lat.Quantile(p/100)/1e3)
	}
	return sub
}

// endToEnd reports the end-to-end metrics of the sub-runs. Throughput,
// latency and CPU cost are each the best value any sub-run reached: what the
// host does to a run (a neighbour on the core, a slow spell of its disk) only
// ever makes it slower, so the best of several runs repeats where their
// median follows the host; the sub-runs' quartiles are printed beside it.
// Set-up time is the median set-up, peak memory the process's.
func endToEnd(subs []subRun) []Metric {
	var samples uint64
	var tails []string
	for _, sub := range subs {
		samples += sub.Committed
		tails = append(tails, sub.Tail)
	}
	over := func(name, unit, note string, best func([]float64) float64, pick func(subRun) float64) Metric {
		values := make([]float64, len(subs))
		for i, sub := range subs {
			values[i] = pick(sub)
		}
		q1, med, q3 := probes.Quartiles(values)
		m := Metric{Name: name, Unit: unit, Value: med, Q1: q1, Q3: q3, N: uint64(len(subs)), Note: note}
		if best != nil {
			m.Value = best(values)
			m.Note = fmt.Sprintf("best of the sub-runs, their median %.4f; %s", med, note)
		}
		return m
	}
	rss := peakRSSMB()
	return []Metric{
		over("tps", "1/s", "a sub-run's is its median 250 ms window", slices.Max, func(s subRun) float64 { return s.TPS }),
		over("p50_us", "us", fmt.Sprintf("%d committed transactions in all", samples), slices.Min, func(s subRun) float64 { return s.P50us }),
		over("p99_us", "us", "highest percentile with >= 10 samples beyond it, per sub-run: "+strings.Join(tails, ", "), slices.Min, func(s subRun) float64 { return s.P99us }),
		over("cpu_us_per_txn", "us", "user+system CPU of the process over a timed run / committed", slices.Min, func(s subRun) float64 { return s.CPUus }),
		over("setup_s", "s", "median set-up: create tables + load + bind executors, one per sub-run", nil, func(s subRun) float64 { return s.SetupS }),
		{Name: "peak_rss_mb", Unit: "MB", Value: rss, Q1: rss, Q3: rss, N: 1, Note: "VmHWM of this process"},
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// queueSampleEvery is how often the traced run samples the executors' queue
// depths: well below a transaction's length would cost more than it shows.
const queueSampleEvery = time.Millisecond

// runTraced runs one segment with everything attached that observes the
// layers from outside: a metrics.Collector, the engine's record-access trace
// hook, a sampler of the executors' queue depths, and counter snapshots
// before and after.
func (r *runner) runTraced(dur time.Duration) traced {
	b := r.bench
	tr := traced{col: metrics.NewCollector(), kinds: r.mix.Names()}
	var accesses atomic.Uint64
	b.Engine.SetCollector(tr.col)
	b.Engine.SetTraceHook(func(engine.TraceEvent) { accesses.Add(1) })

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if b.DORA != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(queueSampleEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					tr.maxQueueDepth = max(tr.maxQueueDepth, b.DORA.MaxQueueDepth())
				}
			}
		}()
	}
	tr.before = snapshot(b)
	tr.seg = r.run(dur, 0, true)
	tr.after = snapshot(b)
	close(stop)
	sampler.Wait()
	b.Engine.SetTraceHook(nil)
	b.Engine.SetCollector(nil)
	tr.accesses = accesses.Load()
	return tr
}

// reopen is the durability self-check: close the engine, recover the same
// log directory the way a restarted process would, and require the
// workload's invariants plus one HISTORY row for every AccountUpdate a
// client saw acknowledged. A shortfall is a lost acknowledged commit.
func (r *runner) reopen(l loaded) (recovery, error) {
	var rec recovery
	if l.bench.DORA != nil {
		l.bench.DORA.Stop()
	}
	if err := l.bench.Engine.Close(); err != nil {
		return rec, fmt.Errorf("close: %w", err)
	}
	start := time.Now()
	e, stats, err := engine.Open(l.logDir, engine.Config{BufferPoolFrames: 1 << 15, LogSync: wal.SyncOnFlush})
	if err != nil {
		return rec, fmt.Errorf("reopen: %w", err)
	}
	defer e.Close() //nolint:errcheck // the checks below decide the outcome
	rec.recovery, rec.records = time.Since(start), stats.Analyzed
	if err := l.bench.Driver.Check(e); err != nil {
		return rec, fmt.Errorf("invariants after recovery: %w", err)
	}
	history, err := e.Table("HISTORY")
	if err != nil {
		return rec, err
	}
	if got, want := history.NumRecords(), l.historyLoaded+int(r.acked); got != want {
		return rec, fmt.Errorf("HISTORY has %d rows after recovery, want %d loaded + %d acknowledged = %d", got, l.historyLoaded, r.acked, want)
	}
	ck, err := e.Checkpoint()
	if err != nil {
		return rec, fmt.Errorf("checkpoint: %w", err)
	}
	rec.checkpoint = ck.Elapsed
	return rec, nil
}

// sampleSpans keeps a seed-fixed 1-in-spanSample sample of the transaction
// spans for the trace file.
func sampleSpans(txns []Span, seed int64) []Span {
	rng := rand.New(rand.NewSource(seed))
	var out []Span
	for _, s := range txns {
		if rng.Intn(spanSample) == 0 {
			out = append(out, s)
		}
	}
	return out
}

// spansOfProbes returns, for each probe, a parent span with one child per
// timed batch, each probe in a lane of its own after the clients' lanes.
// A Parent indexes the returned slice, so the trace file starts with it.
func spansOfProbes(pr map[string]probes.Result) []Span {
	var out []Span
	lane := int32(numClients)
	for _, nu := range probeMetrics {
		p, ok := pr[nu[0]]
		if !ok || len(p.Batches) == 0 {
			continue
		}
		first, last := p.Batches[0], p.Batches[len(p.Batches)-1]
		parent := len(out)
		out = append(out, Span{
			Name: p.Name, Start: int64(first.Start.Sub(epoch)), End: int64(last.Start.Add(last.Elapsed).Sub(epoch)),
			Parent: -1, Lane: lane, OK: true,
		})
		for _, b := range p.Batches {
			start := int64(b.Start.Sub(epoch))
			out = append(out, Span{
				Name: p.Name, Start: start, End: start + int64(b.Elapsed),
				Parent: int32(parent), Lane: lane, Calls: int32(b.Calls), OK: true,
			})
			out[parent].Calls += int32(b.Calls)
		}
		lane++
	}
	return out
}
