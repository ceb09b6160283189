package main

import (
	"fmt"
	"os"

	"dora/internal/harness"
	"dora/internal/wal"
	"dora/internal/workload"
	"dora/internal/workload/tm1"
	"dora/internal/workload/tpcb"
	"dora/internal/workload/tpcc"
)

// Load model shared by every workload: a closed loop of two clients, one per
// core of the sandbox, and two executors per table under DORA.
const (
	numClients        = 2
	executorsPerTable = 2
)

// spec is one named workload: which system runs which data over which log.
type spec struct {
	name    string
	why     string
	system  harness.SystemKind
	driver  func() workload.Driver
	durable bool // file-backed WAL under wal.SyncOnFlush instead of the in-memory log
}

// The four workloads, in the order they are reported. BENCHMARK.json repeats
// the names and the reasons; README.md has the full table.
var specs = []spec{
	{
		name:   "tm1_mix",
		why:    "DORA, TM1 7-kind mix: 1-4 tiny actions per txn, so latency is the dora layer plus the commit hand-off",
		system: harness.DORA,
		driver: func() workload.Driver { return tm1.New(tm1.DefaultSubscribers) },
	},
	{
		name:   "tm1_mix_baseline",
		why:    "Baseline on the same data, mix and seed: bypasses dora, every access goes through lockmgr; the control",
		system: harness.Baseline,
		driver: func() workload.Driver { return tm1.New(tm1.DefaultSubscribers) },
	},
	{
		name:   "tpcc_mix",
		why:    "DORA, TPC-C 5-txn mix, 2 warehouses: long write-heavy flow graphs, engine work and wal append volume",
		system: harness.DORA,
		driver: func() workload.Driver { return tpcc.New(2) },
	},
	{
		name:    "tpcb_durable",
		why:     "DORA, TPC-B AccountUpdate on a file WAL with fsync per flush: latency is the wal flush wait",
		system:  harness.DORA,
		driver:  func() workload.Driver { return tpcb.New(4) },
		durable: true,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// flushPolicy names the workload's log device and sync policy for the
// environment stamp.
func (s spec) flushPolicy() string {
	if s.durable {
		return "file WAL, fsync on every flush (wal.SyncOnFlush)"
	}
	return "in-memory log, no fsync (wal.SyncNone)"
}

// setUp creates the tables, loads them from the seed and, for DORA, binds the
// executors. A durable workload journals its load into a fresh directory
// under scratch.
func (s spec) setUp(seed int64, scratch string) (*harness.Bench, string, error) {
	executors := 0
	if s.system == harness.DORA {
		executors = executorsPerTable
	}
	var dur harness.Durability
	if s.durable {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, "", err
		}
		dur = harness.Durability{LogDir: dir, Sync: wal.SyncOnFlush}
	}
	b, err := harness.SetupDurable(s.driver(), executors, seed, dur)
	return b, dur.LogDir, err
}
