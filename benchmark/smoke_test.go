package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dora/internal/engine"
	"dora/internal/harness"
	"dora/internal/workload"
)

// The smoke test runs every workload in both modes for a fraction of a second
// and asserts that every metric is reported once, finite and with its unit,
// that nothing failed and that the correctness checks pass. It never asserts
// a speed.
func TestSmokeEveryWorkloadReportsEveryMetric(t *testing.T) {
	out := t.TempDir()
	for _, s := range specs {
		for trace := 0; trace <= 1; trace++ {
			o := options{
				workload: s.name, seed: 3, seconds: 0.4, trace: trace, warmup: 100 * time.Millisecond, out: out,
				subRuns: 2, probeRep: 2 * time.Millisecond,
			}
			if s.name == "tm1_mix" || s.name == "tm1_mix_baseline" {
				o.subRuns = 1 // a TM1 load takes over a second
			}
			want := endToEndMetrics
			if trace == 1 {
				want = perLayerMetrics()
				if s.name != specs[0].name {
					// As the all-workloads mode does: only its first traced run probes.
					o.probesFrom = detailPath(out, specs[0].name, 1)
				}
			}
			rep, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", s.name, trace, err)
			}
			if err := rep.print(o); err != nil { // writes the detail file a later -probes reads
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.FailedShare != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d problems=%v",
					s.name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			got := map[string]Metric{}
			for _, m := range rep.Metrics {
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s trace=%d: metric %s reported twice", s.name, trace, m.Name)
				}
				got[m.Name] = m
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", s.name, trace, len(got), len(want))
			}
			for _, nu := range want {
				m, ok := got[nu[0]]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", s.name, trace, nu[0])
				case m.Unit != nu[1] || m.Unit == "":
					t.Errorf("%s: metric %s has unit %q, want %q", s.name, m.Name, m.Unit, nu[1])
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", s.name, m.Name, m.Value)
				}
			}
			if trace == 0 {
				for _, nu := range endToEndMetrics {
					if got[nu[0]].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, nu[0], got[nu[0]].Value)
					}
				}
				continue
			}
			for _, nu := range probeMetrics {
				// dora.rvp_ns is a difference of two probes and may come
				// out below 0 from repetitions this short.
				if m := got[nu[0]]; m.N == 0 || (m.Value <= 0 && m.Name != "dora.rvp_ns") {
					t.Errorf("%s: probe %s = %v from %d repetitions", s.name, m.Name, m.Value, m.N)
				}
			}
			if hit := got["buffer.hit_rate"].Value; hit != 1 {
				t.Errorf("%s: buffer.hit_rate = %v, want 1: the workload must fit the pool", s.name, hit)
			}
			if s.durable && got["engine.recovery_records"].Value <= 0 {
				t.Errorf("%s: the reopen replayed no log records", s.name)
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+s.name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", s.name, err)
			}
		}
	}
}

// noopDriver is a workload whose transactions do nothing, so that whatever a
// run of it allocates is the benchmark's own.
type noopDriver struct{ workload.Driver }

func (noopDriver) Mix() workload.Mix { return workload.Mix{{Name: "Noop", Weight: 1}} }
func (noopDriver) RunBaseline(*engine.Engine, string, *rand.Rand, int) error {
	return nil
}

// The benchmark's client loop must not allocate on the transaction path:
// process.allocs_per_txn of a no-op driver loop is 0.
func TestClientLoopDoesNotAllocate(t *testing.T) {
	b := &harness.Bench{Driver: noopDriver{}}
	r := newRunner(spec{name: "noop", system: harness.Baseline}, b, 1)
	seg := r.run(50*time.Millisecond, 10*time.Millisecond, false)
	if seg.committed < 1000 {
		t.Fatalf("only %d no-op transactions in 50 ms", seg.committed)
	}
	if perTxn := float64(seg.mem.mallocs) / float64(seg.committed); perTxn > 0.01 {
		t.Fatalf("the client loop allocates %.3f times per transaction (%d mallocs, %d transactions)", perTxn, seg.mem.mallocs, seg.committed)
	}
	// Recording a span and a per-kind sample, as the traced run does, fits
	// the storage reserved before the run.
	c := &clientStats{spans: make([]Span, 0, 4096), kinds: make([]Hist, 1)}
	if allocs := testing.AllocsPerRun(2000, func() {
		c.kinds[0].Record(12345)
		c.spans = append(c.spans, Span{Name: "Noop", Start: 1, End: 2, Parent: -1, Calls: 1, OK: true})
	}); allocs != 0 {
		t.Fatalf("recording one traced transaction allocates %v times", allocs)
	}
}

// BENCHMARK.json at the root of the repository names the same workloads and
// metrics as the program.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var file struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(specs))
	}
	for i, s := range specs {
		if file.Workloads[i].Name != s.name || file.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, s.name, s.why)
		}
	}
	same := func(what string, listed []named, want [][2]string) {
		if len(listed) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(listed), len(want))
			return
		}
		for i, nu := range want {
			if listed[i].Name != nu[0] || listed[i].Unit != nu[1] {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", what, i, listed[i].Name, listed[i].Unit, nu[0], nu[1])
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEndMetrics)
	same("per_layer", file.PerLayer, perLayerMetrics())
}
