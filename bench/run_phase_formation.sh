#!/bin/sh
# Refresh BENCH_phase_formation.json — the phase-formation perf trajectory.
#
# Runs the clustering/silhouette microbenchmarks (including the 1/2/4/8
# thread sweeps), writes google-benchmark JSON to the repo root, then folds
# the observability metrics snapshot (thread-pool utilization, Lloyd
# iteration counts, silhouette sample sizes) into the same file under a
# "simprof_metrics" key. The seed-PR serial baseline is recorded as context
# so future PRs can compare against the original per-pair-loop
# implementation:
#   seed BM_ChooseK/200 ≈ 68.3 ms, BM_ChooseK/800 ≈ 381 ms (1-core CI host).
#
# Usage: bench/run_phase_formation.sh [extra google-benchmark flags]
set -e
cd "$(dirname "$0")/.."
. bench/bench_prelude.sh
bench_build perf_core

metrics_tmp=$(mktemp)
trap 'rm -f "$metrics_tmp"' EXIT

"$BENCH_BUILD_DIR"/bench/perf_core \
  --metrics-out "$metrics_tmp" \
  --manifest-out MANIFEST_phase_formation.json \
  --benchmark_filter='BM_KMeans|BM_ChooseK|BM_Silhouette|BM_FormPhases' \
  --benchmark_out=BENCH_phase_formation.json \
  --benchmark_out_format=json \
  --benchmark_context=seed_BM_ChooseK_200_ms=68.3 \
  --benchmark_context=seed_BM_ChooseK_800_ms=381 \
  --benchmark_context=seed_BM_KMeans_20_ms=27.7 \
  --benchmark_context=seed_BM_SilhouetteSampled_ms=10.0 \
  --benchmark_context=build_type="$SIMPROF_BUILD_TYPE" \
  --benchmark_context=git_sha="$SIMPROF_GIT_SHA" \
  --benchmark_context=host_nproc="$SIMPROF_NPROC" \
  "$@"

python3 - "$metrics_tmp" <<'EOF'
import json, os, sys

with open("BENCH_phase_formation.json") as f:
    bench = json.load(f)
with open(sys.argv[1]) as f:
    metrics = json.load(f)

counters = metrics.get("counters", {})
pool = {k.split(".", 1)[1]: v for k, v in counters.items()
        if k.startswith("pool.")}
keep = {name: metrics.get("histograms", {}).get(name)
        for name in ("kmeans.lloyd_iterations", "silhouette.sample_size")}
bench["build_type"] = os.environ.get("SIMPROF_BUILD_TYPE", "unknown")
bench["git_sha"] = os.environ.get("SIMPROF_GIT_SHA", "unknown")
bench["host_nproc"] = int(os.environ.get("SIMPROF_NPROC", "0"))
bench["simprof_metrics"] = {
    "pool": pool,
    "choose_k_sweeps": counters.get("choose_k.sweeps", 0),
    "histograms": {k: v for k, v in keep.items() if v is not None},
}
with open("BENCH_phase_formation.json", "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
print("folded metrics snapshot into BENCH_phase_formation.json")
EOF
