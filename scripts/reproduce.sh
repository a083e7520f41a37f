#!/usr/bin/env bash
# Full reproduction pipeline: build, test, regenerate every table/figure,
# run the examples. Outputs land in test_output.txt / bench_output.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# build/bench/figures regenerates every paper table/figure, ablation and
# extension (one BENCH_<entry>.json each); the loop also runs the
# workload, storage-engine, elasticity and micro benches.
for b in build/bench/*; do "$b"; done 2>&1 | tee bench_output.txt

for e in build/examples/*; do
  case "$e" in *CMakeFiles*|*.cmake) continue;; esac
  [ -x "$e" ] || continue
  echo "== $e"
  "$e"
done

# Collect every BENCH_<name>.json (written into the repo root by the bench
# binaries above) into a single BENCH_manifest.json so one file carries the
# whole run's machine-readable results.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import glob, json, os

entries = []
for path in sorted(glob.glob("BENCH_*.json")):
    if path == "BENCH_manifest.json":
        continue
    try:
        with open(path) as f:
            entries.append(json.load(f))
    except (OSError, ValueError) as e:
        print(f"warning: skipping {path}: {e}")
with open("BENCH_manifest.json", "w") as f:
    json.dump({"benches": entries, "count": len(entries)}, f, indent=2)
    f.write("\n")
print(f"JSON: BENCH_manifest.json ({len(entries)} bench reports)")
EOF
else
  echo "warning: python3 not found; skipping BENCH_manifest.json" >&2
fi
