#!/usr/bin/env bash
# CI-style gate: configure with warnings-as-errors, build everything, run
# the full ctest suite. Set CHECK_SANITIZE=1 for an ASan/UBSan build
# (separate build tree so it never pollutes the fast one).
#
#   scripts/check.sh                 # RelWithDebInfo, -Werror, ctest
#   CHECK_SANITIZE=1 scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-check
SANITIZE=OFF
if [ "${CHECK_SANITIZE:-0}" = "1" ]; then
  BUILD_DIR=build-asan
  SANITIZE=ON
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNADFS_WERROR=ON \
  -DNADFS_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Seeded suites, once per chaos seed (1 and 7). Randomized and seeded
# scenarios fold NADFS_CHAOS_SEED into their seeds, so each seed replays
# different operation sequences, and every scenario must hold (and
# self-digest identically across its internal double runs) for any seed.
# One -R union: the event core and reservation calendars against their
# retained oracles, the pinned star digests (Determinism.*), faults, chaos
# and fabric partitions, the wire and packet-train suites, the sPIN data
# path, the DFS op surface and model check, elasticity (DESIGN.md §3g) and
# the storage engines (DESIGN.md §3h). Under CHECK_SANITIZE=1 all of it
# runs under ASan/UBSan, where a vacated calendar slot, an out-of-range
# seq stored by index or a borrowed DMA source that dies before its replay
# fails loudly.
SEEDED='SimQueueDifferential|CalendarQueue|EventFn|EgressSlots|GapServer|Determinism'
SEEDED+='|Chaos|ClientTimeout|FaultPlan|FaultNet|FailureDetector|Partition|FabricNet|Topology'
SEEDED+='|DuplicatePackets|ExtentBounds|MalformedWrite|MalformedRpc|Wire|BuildWritePackets'
SEEDED+='|Reassembly|ForgedPacketCount|ReadPath'
SEEDED+='|AllocBudget|HandlerCtx|PsPinDevice|DfsHandlers|RdmaNic'
SEEDED+='|DfsOps|DfsModel|WorkloadEngine|Zipf'
SEEDED+='|Elasticity|Rejoin|Drain'
SEEDED+='|StorageEngine|BetaTree|EngineEquivalence|Target'
for seed in 1 7; do
  count="$(ctest --test-dir "$BUILD_DIR" -N -R "$SEEDED" | sed -n 's/^Total Tests: //p')"
  echo "== seeded suites under NADFS_CHAOS_SEED=$seed: $count tests"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R "$SEEDED"
done

# Storage-engine sweep: line-rate vs NVMM vs Bε-tree goodput; the bench
# re-reads BENCH_storage_engine.json through the strict obs JSON parser and
# exits nonzero unless the betree knee is non-degenerate and attributable
# to compaction backlog (compact bytes + stall time grow past the knee).
echo "== storage-engine sweep (BENCH_storage_engine.json validation)"
(cd "$BUILD_DIR" && "./bench/storage_engine" > /dev/null)

# Elasticity sweep: time-to-rejoin, rebalance convergence and the
# rolling-restart goodput dip; the bench re-reads BENCH_elasticity.json
# through the strict obs JSON parser and fails on missing row families.
echo "== elasticity sweep (BENCH_elasticity.json validation)"
(cd "$BUILD_DIR" && "./bench/elasticity" > /dev/null)

# Workload-engine sweep: goodput vs offered load for all four variants. The
# bench re-reads BENCH_workloads.json through the strict obs JSON parser and
# exits nonzero when the report is malformed or misses a variant's knee
# row — the report format is a tested artifact, not a best-effort dump.
echo "== workload sweep (BENCH_workloads.json validation)"
(cd "$BUILD_DIR" && "./bench/workloads" > /dev/null)

# Paper-figure, ablation and extension sweeps, plus the fault-recovery and
# fabric sweeps (~2 s together): the entries of the `figures` binary. It
# runs in a scratch directory under the build tree and must exit 0 and
# leave, for every entry, a BENCH_<name>.json that strict-parses (no
# NaN/Infinity) with non-empty rows. Every sweep point builds its own
# clusters, so the thread count must not move a number: a second, serial
# run (NADFS_BENCH_THREADS=1) must write the same rows and metrics to every
# report.
echo "== figures sweeps (BENCH_<name>.json validation, serial == parallel)"
FIGURES="$PWD/$BUILD_DIR/bench/figures"
BENCH_RUNS="$BUILD_DIR/bench-runs"
FIGURE_ENTRIES=(
  fig04_nic_memory fig06_write_latency fig07_pipeline_breakdown
  fig09_replication_latency fig09_goodput fig10_replication_factor
  fig11_handler_runtimes fig15_ec_latency fig15_ec_bandwidth fig16_ec_handlers
  ablation_egress_queue ablation_accumulator_pool ablation_interleave
  ablation_chunk_size ablation_auth ablation_hpu_scaling ext_read_latency
  fault_recovery fabric
)
for run in figures figures-serial; do
  rm -rf "${BENCH_RUNS:?}/$run"
  mkdir -p "$BENCH_RUNS/$run"
done
if ! (cd "$BENCH_RUNS/figures" && "$FIGURES" > stdout.txt 2>&1) ||
   ! (cd "$BENCH_RUNS/figures-serial" && NADFS_BENCH_THREADS=1 "$FIGURES" > stdout.txt 2>&1); then
  echo "FAIL: figures exited non-zero"
  tail -n 20 "$BENCH_RUNS"/figures*/stdout.txt
  exit 1
fi
python3 - "$BENCH_RUNS/figures" "$BENCH_RUNS/figures-serial" "${FIGURE_ENTRIES[@]}" <<'EOF'
import json, os, sys
runs, serial, names = sys.argv[1], sys.argv[2], sys.argv[3:]
def reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")
def load(run, name):
    with open(os.path.join(run, f"BENCH_{name}.json")) as fh:
        return json.load(fh, parse_constant=reject)
rows = 0
for name in names:
    doc, ser = load(runs, name), load(serial, name)
    assert isinstance(doc.get("rows"), list) and doc["rows"], f"{name}: no rows"
    rows += len(doc["rows"])
    for key in ("rows", "metrics"):
        assert doc[key] == ser[key], f"{name}: {key} differ between the default and the serial run"
print(f"figures OK: {len(names)} reports, {rows} rows, serial rows and metrics identical")
EOF

# Observability gate: the trace-enabled kill-mid-EC-write chaos scenario
# (examples/chaos_trace) self-validates its span correlation and state-GC
# drain, then the exported artifacts must parse — the Perfetto trace and
# the metric snapshot as strict JSON, the timeseries as non-empty CSV.
echo "== trace-enabled chaos scenario + artifact validation"
OBS_DIR="$BUILD_DIR/obs-artifacts"
mkdir -p "$OBS_DIR"
(cd "$OBS_DIR" && "../examples/chaos_trace")
python3 - "$OBS_DIR" <<'EOF'
import json, sys, os
d = sys.argv[1]
for f in ("chaos_trace.json", "chaos_trace_metrics.json"):
    with open(os.path.join(d, f)) as fh:
        doc = json.load(fh)
    if f == "chaos_trace.json":
        assert doc["traceEvents"], "empty traceEvents"
    else:
        assert doc, "empty metric snapshot"
with open(os.path.join(d, "chaos_trace_timeseries.csv")) as fh:
    rows = fh.read().strip().splitlines()
assert len(rows) > 1 and rows[0].startswith("t_ns,"), "bad timeseries CSV"
print(f"obs artifacts OK: {len(rows)-1} samples, trace + metrics parse")
EOF

# Repository benchmark pins (default mode only): each perfbench workload
# runs for 1 s on seed 1 and must exit 0 (its correctness gate) and print
# the digest sum recorded for its simulated traffic. Host-side work (the
# data path's copies and allocations) may change; what the benchmark
# simulates may not. The perfbench build lives inside the build tree.
if [ "$SANITIZE" = "OFF" ]; then
  echo "== perfbench workloads: exit 0 and pinned digest sums (seed 1, 1 s)"
  declare -A PERFBENCH_DIGESTS=(
    [line_mix]=0x4238370db4bb2510
    [ec_overload]=0x18cc90a6990e26be
    [host_betree]=0xb873db4757933e76
  )
  for workload in line_mix ec_overload host_betree; do
    want="${PERFBENCH_DIGESTS[$workload]}"
    if ! out="$(CARGO_TARGET_DIR="$PWD/$BUILD_DIR/perfbench-build" \
                python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0)"; then
      echo "$out" | tail -n 20
      echo "FAIL: perfbench $workload exited non-zero"
      exit 1
    fi
    if ! grep -q "(digest sum $want)" <<<"$out"; then
      echo "$out" | grep "digest sum" || true
      echo "FAIL: perfbench $workload digest sum differs from $want"
      exit 1
    fi
    echo "perfbench $workload OK: digest sum $want"
  done
fi
