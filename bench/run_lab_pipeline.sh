#!/bin/sh
# Refresh BENCH_lab_pipeline.json — the end-to-end lab-pipeline trajectory.
#
# Runs the perf_lab benchmarks (batched lab acquisition, sparse feature
# extraction, single-pass blocked feature selection, bulk classification)
# with their 1/2/4/8 thread sweeps against the seed-era serial baselines
# (BM_PipelineNaive / BM_FRegressionNaive / BM_ClassifyNaive, compiled from
# the same sources), writes google-benchmark JSON to the repo root, then
# folds the lab.batch_* metrics snapshot and the naive-vs-batch speedup into
# the same file under a "simprof_metrics" key.
#
# Seed-PR baseline recorded as context: the seed pipeline is the dense
# feature matrix + per-column-copy two-pass Pearson + per-unit classify,
# i.e. exactly what BM_PipelineNaive measures on this host. On a single
# core (see host_nproc) thread sweeps measure scheduling overhead, not
# speedup; the headline ≥2× comes from the algorithmic restructure and
# holds at every thread count.
#
# Usage: bench/run_lab_pipeline.sh [extra google-benchmark flags]
set -e
cd "$(dirname "$0")/.."
. bench/bench_prelude.sh
bench_build perf_lab

metrics_tmp=$(mktemp)
trap 'rm -f "$metrics_tmp"' EXIT

"$BENCH_BUILD_DIR"/bench/perf_lab \
  --metrics-out "$metrics_tmp" \
  --manifest-out MANIFEST_lab_pipeline.json \
  --benchmark_out=BENCH_lab_pipeline.json \
  --benchmark_out_format=json \
  --benchmark_context=seed_pipeline=dense_column_copy_pearson_serial \
  --benchmark_context=build_type="$SIMPROF_BUILD_TYPE" \
  --benchmark_context=git_sha="$SIMPROF_GIT_SHA" \
  --benchmark_context=host_nproc="$SIMPROF_NPROC" \
  "$@"

python3 - "$metrics_tmp" <<'EOF'
import json, os, sys

with open("BENCH_lab_pipeline.json") as f:
    bench = json.load(f)
with open(sys.argv[1]) as f:
    metrics = json.load(f)

counters = metrics.get("counters", {})
lab = {k.split(".", 1)[1]: v for k, v in counters.items()
       if k.startswith("lab.")}
pool = {k.split(".", 1)[1]: v for k, v in counters.items()
        if k.startswith("pool.")}

times = {b["name"]: b["real_time"] for b in bench.get("benchmarks", [])
         if b.get("run_type") != "aggregate"}
speedup = {}
naive = times.get("BM_PipelineNaive")
for threads in (1, 2, 4, 8):
    t = times.get("BM_PipelineBatch/%d" % threads)
    if naive and t:
        speedup["pipeline_x%d" % threads] = round(naive / t, 2)

bench["build_type"] = os.environ.get("SIMPROF_BUILD_TYPE", "unknown")
bench["git_sha"] = os.environ.get("SIMPROF_GIT_SHA", "unknown")
bench["host_nproc"] = int(os.environ.get("SIMPROF_NPROC", "0"))
bench["simprof_metrics"] = {
    "lab": lab,
    "pool": pool,
    "speedup_vs_naive": speedup,
}
with open("BENCH_lab_pipeline.json", "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
print("folded metrics snapshot into BENCH_lab_pipeline.json")
print("speedup_vs_naive:", speedup)
EOF
