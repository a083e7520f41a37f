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

# Event-core suites (calendar queue vs retained PR 1 heap oracle, EventFn
# lifetime coverage, egress-slot and GapServer reservation calendars vs
# their retained predecessors) get an explicit focused rerun so a discovery
# hiccup can never silently skip them — these are the gate for event-order
# and reservation-timing regressions.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'SimQueueDifferential|CalendarQueue|EventFn|Determinism|EgressSlots|GapServer'

# Event-core and reservation-calendar differential suites under two chaos
# seeds: the randomized lockstep runs fold NADFS_CHAOS_SEED into their
# seeds, so each seed replays different operation sequences. Under
# CHECK_SANITIZE=1 this puts the calendar queue's payload-slot reuse and
# every vector insert, erase and compaction of the calendars under ASan
# (a use of a vacated slot or an invalidated iterator fails loudly).
for seed in 1 7; do
  echo "== event-core + calendar differential suites under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'SimQueueDifferential|CalendarQueue|EventFn|EgressSlotsDifferential|GapServerDifferential'
done

# GF(2^8) kernel-tier matrix: rerun the EC suites under every tier the host
# actually supports. gf_kernel_probe reports which tier a forced value
# resolves to; a mismatch means the tier is unsupported here (or failed its
# startup self-check and fell down the ladder), so it is skipped with a
# notice rather than tested as a false positive.
PROBE="$BUILD_DIR/src/ec/gf_kernel_probe"
for tier in scalar word64 ssse3 avx2 gfni; do
  actual="$(NADFS_GF_KERNEL=$tier "$PROBE")"
  if [ "$actual" != "$tier" ]; then
    echo "NOTICE: GF kernel tier '$tier' unsupported on this host (resolves to '$actual'); skipping"
    continue
  fi
  echo "== EC test suites under NADFS_GF_KERNEL=$tier"
  NADFS_GF_KERNEL=$tier ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'Gf256|ReedSolomon|EcKernel|EcRoundTrip|EcDigestPin'
done

# Fault/chaos suites under two distinct chaos seeds: the seeded scenarios
# must hold (and self-digest identically across their internal double runs)
# for *any* seed, not just the default. The regular ctest pass above already
# ran them under seed 1; under CHECK_SANITIZE=1 this also puts the whole
# fault path (deadline events, AckTracker::take, Nic::cancel_read, recovery
# fallback) under ASan/UBSan. Failures print the fault counters. The
# wire regressions ride along: DuplicatePackets (duplicated, out-of-range
# and recounted packets at every reassembly point; under the sanitizer an
# out-of-range seq stored by index fails loudly), ExtentBounds (writes stay
# inside the capability's extent), MalformedWrite/MalformedRpc/Wire
# (headers that do not parse are refused, never acked; under the sanitizer
# a parity coordinate read past its list fails loudly), and the packet-train
# suites: BuildWritePackets (every cutter input), Reassembly,
# ForgedPacketCount and ReadPath (exact bytes on every read-response train).
# The sPIN data-path suites ride along too: AllocBudget (heap allocations
# per packet), HandlerCtx, PsPinDevice, DfsHandlers and RdmaNic. A payload
# handler's storage DMA borrows the packet until its replay, so under the
# sanitizer a borrowed source that dies first fails loudly.
for seed in 1 7; do
  echo "== chaos/fault + wire suites under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'Chaos|ClientTimeout|FaultPlan|FaultNet|FailureDetector|Partition|DuplicatePackets|ExtentBounds|MalformedWrite|MalformedRpc|Wire|BuildWritePackets|Reassembly|ForgedPacketCount|ReadPath|AllocBudget|HandlerCtx|PsPinDevice|DfsHandlers|RdmaNic'
done

# Fabric partition chaos under both seeds (also covered by the loop above;
# this focused rerun exists so a discovery hiccup can never silently skip
# the split-brain gate), plus the single-switch digest pins: the Topology
# refactor must keep star runs bit-identical to the PR 5 recordings —
# Determinism.* carries the pinned digests and fails on any drift.
for seed in 1 7; do
  echo "== partition scenario + star digest pins under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'Partition|FabricNet|Topology|Determinism'
done

# Op-surface compliance + model-checked suites under both chaos seeds: the
# typed-error contract (create/delete/stat/append/list + extent primitives)
# and the randomized oracle runs are the gate for the DFS op surface; the
# chaos loop above already covers the kill-mid-append and delete-during-
# rebuild scenarios under both seeds. The focused rerun here means a
# discovery hiccup can never silently skip the compliance suites.
for seed in 1 7; do
  echo "== op-surface compliance + model suites under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'DfsOps|DfsModel|WorkloadEngine|Zipf'
done

# Elasticity gates (DESIGN.md §3g): restart/rejoin, planned drain, and the
# background rebalancer run under both chaos seeds — every seeded scenario
# double-runs internally and must self-digest identically. This is the
# gate for the node lifecycle loop (alive -> failed -> restart -> alive).
for seed in 1 7; do
  echo "== elasticity suites under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'Elasticity|Rejoin|Drain'
done

# Storage-engine gates (DESIGN.md §3h): the backend factory + per-node
# selection, the Bε-tree flush/compaction/stall behaviour and compaction
# output retention, the cluster digest and the equivalence suites
# (LineRate op-for-op vs the pre-engine model, Bε-tree vs flat oracle after
# every op, timing digests) — the digests pinned for both chaos seeds.
for seed in 1 7; do
  echo "== storage-engine suites under NADFS_CHAOS_SEED=$seed"
  NADFS_CHAOS_SEED=$seed ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'StorageEngine|BetaTree|EngineEquivalence|Target'
done

# Storage-engine bench smoke: line-rate vs NVMM vs Bε-tree goodput sweep;
# the bench re-reads BENCH_storage_engine.json through the strict obs JSON
# parser and exits nonzero unless the betree knee is non-degenerate and
# attributable to compaction backlog (compact bytes + stall time grow past
# the knee).
echo "== storage-engine bench smoke (BENCH_storage_engine.json validation)"
(cd "$BUILD_DIR" && NADFS_BENCH_SMOKE=1 "./bench/storage_engine" > /dev/null)

# Elasticity bench smoke: time-to-rejoin, rebalance convergence and the
# rolling-restart goodput dip; the bench re-reads BENCH_elasticity.json
# through the strict obs JSON parser and fails on missing row families.
echo "== elasticity bench smoke (BENCH_elasticity.json validation)"
(cd "$BUILD_DIR" && NADFS_BENCH_SMOKE=1 "./bench/elasticity" > /dev/null)

# Workload-engine smoke: the goodput-vs-offered-load bench in smoke mode
# (2 variants, 3 sweep points). The bench re-reads BENCH_workloads.json
# through the strict obs JSON parser and exits nonzero when the report is
# malformed or missing its knee rows — the report format is a tested
# artifact, not a best-effort dump.
echo "== workload bench smoke (BENCH_workloads.json validation)"
(cd "$BUILD_DIR" && NADFS_BENCH_SMOKE=1 "./bench/workloads" > /dev/null)

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

# The obs compile-out gate must stay buildable: with NADFS_OBS=OFF the
# span/sampler hooks compile to nothing and the obs suites must still pass
# (digest-neutrality holds trivially). Configure-only tree, obs suites run.
echo "== NADFS_OBS=OFF build + obs/trace/determinism suites"
cmake -B build-noobs -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNADFS_WERROR=ON \
  -DNADFS_OBS=OFF > /dev/null
cmake --build build-noobs -j "$(nproc)" --target test_obs test_trace test_determinism
ctest --test-dir build-noobs --output-on-failure -R 'Obs|SpanTracer|Determinism'
