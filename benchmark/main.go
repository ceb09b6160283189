// Command benchmark is the repository's one benchmark: four named workloads,
// six end-to-end metrics measured with tracing off, and a per-layer budget
// measured from outside the layers in a separate traced run. README.md in
// this directory describes the workloads, the metrics and how to read them.
//
// With -workload it runs one workload and prints, as the last line of its
// standard output, the JSON object BENCHMARK.json's contract asks for.
// Without it, it runs every workload in a fresh child process each, first
// untraced and then traced, and writes out/results.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	warmup     time.Duration
	out        string
	probesFrom string
	// No flag sets these two; the smoke test shortens them.
	subRuns  int
	probeRep time.Duration
}

func main() {
	o := options{subRuns: subRunCount, probeRep: probeRepTime}
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the load and of the clients' generators")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds of one run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the probes")
	flag.DurationVar(&o.warmup, "warmup", time.Second, "discarded warm-up after every set-up")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for traces, results and scratch files")
	flag.StringVar(&o.probesFrom, "probes", "", "traced mode: take the probe metrics from this detail file of an earlier traced run instead of measuring them")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1]")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	var err error
	ok := false
	if o.workload == "" {
		ok, err = runAll(o)
	} else {
		var rep *Report
		if rep, err = runWorkload(o); err == nil {
			ok = rep.Correct
			err = rep.print(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// Report is the outcome of one workload run in one mode.
type Report struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Trace       int      `json:"trace"`
	Seconds     float64  `json:"seconds"`
	Correct     bool     `json:"correct"`
	Problems    []string `json:"problems,omitempty"`
	Attempted   uint64   `json:"attempted"`
	Failed      uint64   `json:"failed"`
	FailedShare float64  `json:"failed_share"`
	Metrics     []Metric `json:"metrics"`
	// SubRuns are the timed sub-runs behind the medians (untraced mode only).
	SubRuns []subRun `json:"sub_runs,omitempty"`
	Env     Env      `json:"env"`
}

// Env is the environment stamp printed with every result.
type Env struct {
	Commit      string `json:"commit"`
	Go          string `json:"go"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPU         string `json:"cpu"`
	Kernel      string `json:"kernel"`
	Clients     int    `json:"clients"`
	Executors   int    `json:"executors_per_table"`
	FlushPolicy string `json:"flush_policy"`
}

func environment(s spec) Env {
	env := Env{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: "unknown", Kernel: "unknown", Clients: numClients, Executors: executorsPerTable, FlushPolicy: s.flushPolicy(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				env.Commit = kv.Value
			}
			if kv.Key == "vcs.modified" && kv.Value == "true" {
				env.Commit += "+modified"
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	return env
}

// print writes the human-readable table, the detail file the all-workloads
// mode collects, and last the one-line JSON object of the benchmark contract.
func (rep *Report) print(o options) error {
	fmt.Printf("# %s  seed=%d seconds=%g trace=%d  commit=%s %s GOMAXPROCS=%d nproc=%d cpu=%q kernel=%s clients=%d executors/table=%d log=%q\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Env.Commit, rep.Env.Go, rep.Env.GOMAXPROCS, rep.Env.NumCPU,
		rep.Env.CPU, rep.Env.Kernel, rep.Env.Clients, rep.Env.Executors, rep.Env.FlushPolicy)
	fmt.Printf("%-18s %-34s %-6s %14s %14s %14s %10s  %s\n", "workload", "metric", "unit", "value", "q1", "q3", "n", "note")
	for _, m := range rep.Metrics {
		fmt.Printf("%-18s %-34s %-6s %14.4f %14.4f %14.4f %10d  %s\n", rep.Workload, m.Name, m.Unit, m.Value, m.Q1, m.Q3, m.N, m.Note)
	}
	fmt.Printf("%-18s %-34s %-6s %14.6f %14s %14s %10d  failures other than input aborts / attempted\n",
		rep.Workload, "failed_share", "ratio", rep.FailedShare, "", "", rep.Attempted)
	for _, p := range rep.Problems {
		fmt.Printf("%-18s PROBLEM: %s\n", rep.Workload, p)
	}

	detail, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(detailPath(o.out, rep.Workload, rep.Trace), detail, 0o644); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, m := range rep.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func detailPath(out, workload string, trace int) string {
	return filepath.Join(out, fmt.Sprintf("detail-%s-trace%d.json", workload, trace))
}

// runAll runs every workload untraced and traced, each run in a fresh child
// process so that peak memory, GC state and heap growth never leak from one
// workload into the next, and merges the children's detail files into
// out/results.json. The probes do not depend on the workload: the first traced
// child measures them and the later ones take them from its detail file.
func runAll(o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	var reports []Report
	ok := true
	probesFrom := ""
	for _, s := range specs {
		for trace := 0; trace <= 1; trace++ {
			detail := detailPath(o.out, s.name, trace)
			args := []string{
				"-workload", s.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-warmup", o.warmup.String(), "-out", o.out,
			}
			if trace == 1 && probesFrom != "" {
				args = append(args, "-probes", probesFrom)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			os.Remove(detail) //nolint:errcheck // a stale result must not be read below
			if err := cmd.Run(); err != nil {
				if _, exited := err.(*exec.ExitError); !exited {
					return false, err
				}
				ok = false
			}
			data, err := os.ReadFile(detail)
			if err != nil {
				return false, fmt.Errorf("%s trace=%d left no result: %w", s.name, trace, err)
			}
			var rep Report
			if err := json.Unmarshal(data, &rep); err != nil {
				return false, err
			}
			reports = append(reports, rep)
			if trace == 1 && probesFrom == "" {
				probesFrom = detail
			}
		}
	}
	data, err := json.MarshalIndent(reports, "", " ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(o.out, "results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return false, err
	}
	fmt.Println("wrote", path)
	return ok, nil
}
