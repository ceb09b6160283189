package tpcc

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"testing"
	"time"

	"dora/internal/engine"
	"dora/internal/harness"
	"dora/internal/wal"
)

// crashChildEnv names the log directory of the crash-restart child. When it
// is set, TestSIGKILLCrashRestart runs as the child instead of the parent.
const crashChildEnv = "DORA_TPCC_CRASH_CHILD_DIR"

// crashRestartDriver is the TPC-C instance both sides of the crash-restart
// test use: the checker must run against the schema the child loaded.
func crashRestartDriver() *Driver {
	d := New(2)
	d.CustomersPerDistrict = 30
	d.Items = 100
	return d
}

// TestSIGKILLCrashRestart re-executes the test binary as a child process that
// loads a durable TPC-C database (file WAL, fsync per flush, background fuzzy
// checkpoints) and runs the DORA mix until it is killed. The parent SIGKILLs
// the child once it has reported enough commits and at least one completed
// checkpoint, reopens the log directory with engine.Open, and requires that
// recovery started from a checkpoint image and that the §3.3.2 checker passes
// before and after 200 post-restart transactions.
func TestSIGKILLCrashRestart(t *testing.T) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		runCrashChild(t, dir)
		return
	}
	const minCommits = 200
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestSIGKILLCrashRestart$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer cmd.Process.Kill()

	type progress struct{ commits, cutLSN uint64 }
	reports := make(chan progress)
	exited := make(chan string, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		sc := bufio.NewScanner(stdout)
		last := ""
		for sc.Scan() {
			var p progress
			if _, err := fmt.Sscanf(sc.Text(), "COMMITTED %d CHECKPOINT %d", &p.commits, &p.cutLSN); err != nil {
				last = sc.Text()
				continue
			}
			select {
			case reports <- p:
			case <-done:
				return
			}
		}
		exited <- last
	}()
	var last progress
	deadline := time.After(2 * time.Minute)
	for last.commits < minCommits || last.cutLSN == 0 {
		select {
		case last = <-reports:
		case out := <-exited:
			t.Fatalf("child exited after %+v (last output %q)", last, out)
		case <-deadline:
			t.Fatalf("child did not reach %d commits and a checkpoint in time: %+v", minCommits, last)
		}
	}
	// SIGKILL: no shutdown path of the child runs.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing child: %v", err)
	}
	cmd.Wait()
	t.Logf("child killed after %d commits, last checkpoint cut %d", last.commits, last.cutLSN)

	e, stats, err := engine.Open(dir, engine.Config{BufferPoolFrames: 1 << 15, LogSync: wal.SyncOnFlush})
	if err != nil {
		t.Fatalf("reopening log dir: %v", err)
	}
	defer e.Close()
	if stats.CheckpointLSN == 0 {
		t.Fatalf("recovery replayed from scratch despite a completed checkpoint: %+v", stats)
	}
	d := crashRestartDriver()
	if err := d.Check(e); err != nil {
		t.Fatalf("invariants after crash-restart recovery: %v", err)
	}
	runMix(t, d, e, rand.New(rand.NewSource(99)), 200)
	if err := d.Check(e); err != nil {
		t.Fatalf("invariants after post-restart traffic: %v", err)
	}
}

// runCrashChild is the child half of TestSIGKILLCrashRestart. It runs the mix
// in 100 ms windows and, after each, reports its cumulative commits and the
// cut LSN of its last completed checkpoint on stdout, until it is killed.
func runCrashChild(t *testing.T, dir string) {
	b, err := harness.SetupDurable(crashRestartDriver(), 2, 1, harness.Durability{
		LogDir: dir, Sync: wal.SyncOnFlush,
		CheckpointEvery: 50 * time.Millisecond, SegmentSize: 256 << 10,
	})
	if err != nil {
		t.Fatalf("SetupDurable: %v", err)
	}
	var total uint64
	for i := int64(1); ; i++ {
		res := b.Run(harness.Config{System: harness.DORA, Workers: 4,
			Duration: 100 * time.Millisecond, Seed: i, SkipCheck: true})
		if res.Errors > 0 {
			t.Fatalf("window %d: %d hard errors", i, res.Errors)
		}
		total += res.Committed
		fmt.Printf("COMMITTED %d CHECKPOINT %d\n", total, b.Engine.LastCheckpoint().CutLSN)
	}
}
