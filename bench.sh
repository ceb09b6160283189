#!/usr/bin/env bash
# bench.sh — run the end-to-end throughput benchmarks and emit JSON summaries
# so successive PRs accumulate a performance trajectory: BENCH_tm1.json for
# the TM1 mix and pipeline microbenchmarks, BENCH_tpcc.json for the TPC-C
# secondary-phase A/B (serial vs parallel secondaries) and allocation counts,
# BENCH_skew.json for the hot-warehouse-shift rebalancing benchmark
# (before/during/after-shift throughput and imbalance, balancer on vs off),
# BENCH_durability.json for the log-device benchmark (throughput and
# commits-per-flush across sync policies, mem vs file device), and
# BENCH_htap.json for the snapshot-read benchmark (OLTP throughput under
# continuous analytical scans: epoch-pinned snapshot scanners vs the locked
# claim-holding alternative vs a no-scanner baseline), and BENCH_crash.json
# for the crash-restart benchmark (recovery time and replayed work vs run
# length, with and without fuzzy checkpointing), and BENCH_overload.json for
# the overload/chaos benchmark (open-loop saturation with admission control
# on vs off, plus transient- and permanent-fault chaos arms on an injected
# log device).
#
# Usage: ./bench.sh [tm1.json] [tpcc.json] [skew.json] [durability.json] [htap.json] [crash.json] [overload.json]
#   BENCHTIME=2s ./bench.sh        # longer measurement interval
#   SKEW_FLAGS="-skew-windows 6 -skew-window 150ms" ./bench.sh   # faster skew run
#   HTAP_FLAGS="-htap-tps-gate=false" ./bench.sh                 # noisy-host htap run
#   CRASH_FLAGS="-crash-commits 200" ./bench.sh                  # faster crash run
#   OVERLOAD_FLAGS="-overload-duration 1s" ./bench.sh            # faster overload run
set -euo pipefail

out_tm1=${1:-BENCH_tm1.json}
out_tpcc=${2:-BENCH_tpcc.json}
out_skew=${3:-BENCH_skew.json}
out_durability=${4:-BENCH_durability.json}
out_htap=${5:-BENCH_htap.json}
out_crash=${6:-BENCH_crash.json}
out_overload=${7:-BENCH_overload.json}
benchtime=${BENCHTIME:-1s}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# Correctness gate before measuring anything: the full five-transaction TPC-C
# mix must pass the consistency-invariant checker on both execution systems.
go run ./cmd/dorabench -fig check -txns 800

# Convert `name  iters  value ns/op  v1 unit1  v2 unit2 …` lines into JSON.
bench_to_json() {
  awk '
  /^Benchmark/ {
      name = $1
      sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
      printf "%s  {\"name\": \"%s\", \"iterations\": %s", sep, name, $2
      for (i = 3; i + 1 <= NF; i += 2) {
          unit = $(i + 1)
          gsub(/[\\"]/, "", unit)
          printf ", \"%s\": %s", unit, $i
      }
      printf "}"
      sep = ",\n"
  }
  BEGIN { print "{" ; printf "  \"benchtime\": \"'"$benchtime"'\",\n  \"results\": [\n" }
  END   { print "\n  ]\n}" }
  ' "$1" > "$2"
}

go test -run '^$' -bench 'BenchmarkTM1Throughput|BenchmarkExecutorQueue|BenchmarkGroupCommit|BenchmarkWALAppendParallel' \
  -benchtime "$benchtime" . | tee "$raw"
bench_to_json "$raw" "$out_tm1"
echo "wrote $out_tm1"

go test -run '^$' -bench 'BenchmarkSecondaryPhase|BenchmarkTxnStartAllocs' -benchmem \
  -benchtime "$benchtime" . | tee "$raw"
bench_to_json "$raw" "$out_tpcc"
echo "wrote $out_tpcc"

# Adaptive-partitioning benchmark: hot warehouses shift at t/2, balancer on vs
# off. Gates on invariants, hard errors, and the uniform spurious-move bound —
# not on throughput.
# shellcheck disable=SC2086
go run ./cmd/dorabench -fig skew -skew-json "$out_skew" ${SKEW_FLAGS:-}
echo "wrote $out_skew"

# Durable-log benchmark: the TPC-C mix across log devices and sync policies.
# Gates on invariants and the group-commit guarantees (commits/flush > 1 and
# exactly one fsync per device write under SyncOnFlush) — not on throughput.
go run ./cmd/dorabench -fig durability -durability-json "$out_durability" \
  ${DURABILITY_FLAGS:-}
echo "wrote $out_durability"

# HTAP snapshot-read benchmark: the five-transaction TPC-C mix against
# continuous full-table scanners, snapshot vs locked. Always gates on
# invariants and in-scan snapshot consistency; the throughput-degradation
# bounds are part of the default run (disable with
# HTAP_FLAGS="-htap-tps-gate=false" on hosts too noisy to measure).
# shellcheck disable=SC2086
go run ./cmd/dorabench -fig htap -htap-json "$out_htap" ${HTAP_FLAGS:-}
echo "wrote $out_htap"

# Crash-restart benchmark: SIGKILL a durable TPC-C child running with
# background fuzzy checkpointing, recover from the newest image + log tail,
# then sweep recovery work vs run length with checkpoints on and off. Gates
# on invariants and the deterministic counters (analyzed records, retained
# segments shrink under checkpointing) — not on recovery wall-clock.
# shellcheck disable=SC2086
go run ./cmd/dorabench -fig crash -crash-json "$out_crash" \
  ${CRASH_FLAGS:--crash-commits 200 -crash-checkpoint 150ms}
echo "wrote $out_crash"

# Overload & chaos benchmark: an open-loop TPC-C arrival stream at 3x the
# measured closed-loop capacity, admission control off vs on, then transient-
# and permanent-fault chaos arms against an injected log device. Gates on
# behavior (shedding engages, queues stay bounded, transient faults are
# absorbed, a dead device degrades to checked read-only service) — not on
# throughput.
# shellcheck disable=SC2086
go run ./cmd/dorabench -fig overload -overload-json "$out_overload" \
  ${OVERLOAD_FLAGS:-}
echo "wrote $out_overload"
