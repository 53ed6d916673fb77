#!/bin/sh
# Refresh BENCH_checkpoint.json — the checkpointed-measurement speedup curve.
#
# Runs perf_checkpoint: WorkloadLab::measure_units over n ∈ {1,2,5,10}
# SMARTS-selected units of grep_sp, once restoring the warm SCKP archives
# recorded by the oracle pass (BM_MeasureCheckpointed) and once planned cold
# with no archives (BM_MeasureNoCheckpoint — detailed simulation from unit 0,
# the path every measurement paid before checkpointing), plus the full
# oracle pass for context. The bench aborts during setup unless both paths
# return bitwise-equal unit records.
#
# The fold step appends the warm/cold speedup per n and the ckpt.* /
# lab.fast_forward* metrics snapshot under a "simprof_metrics" key, and
# stamps build provenance (build_type, git_sha, host_nproc). The headline
# number is speedup_vs_cold at n ≤ 10, expected ≥ 3× on grep_sp at default
# scale.
#
# Usage: bench/run_checkpoint.sh [extra google-benchmark flags]
set -e
cd "$(dirname "$0")/.."
. bench/bench_prelude.sh
bench_build perf_checkpoint

# The warm path needs archives in the *current* SCKP format. A cached grep_sp
# profile would skip the setup oracle pass and leave stale (or no) archives
# behind, so drop the profile and its archive dir and let the pass regenerate
# both.
cache_dir=${SIMPROF_CACHE_DIR:-.simprof_cache}
rm -f "$cache_dir"/grep_sp-Google-*.sprf
rm -rf "$cache_dir"/ckpt/grep_sp-Google-* "$cache_dir"/ckpt_cold_bench

metrics_tmp=$(mktemp)
trap 'rm -f "$metrics_tmp"' EXIT

"$BENCH_BUILD_DIR"/bench/perf_checkpoint \
  --metrics-out "$metrics_tmp" \
  --manifest-out MANIFEST_checkpoint.json \
  --benchmark_out=BENCH_checkpoint.json \
  --benchmark_out_format=json \
  --benchmark_context=build_type="$SIMPROF_BUILD_TYPE" \
  --benchmark_context=git_sha="$SIMPROF_GIT_SHA" \
  --benchmark_context=host_nproc="$SIMPROF_NPROC" \
  "$@"

python3 - "$metrics_tmp" <<'EOF'
import json, os, sys

with open("BENCH_checkpoint.json") as f:
    bench = json.load(f)
with open(sys.argv[1]) as f:
    metrics = json.load(f)

counters = metrics.get("counters", {})
ckpt = {k.split(".", 1)[1]: v for k, v in counters.items()
        if k.startswith("ckpt.")}
lab = {k.split(".", 1)[1]: v for k, v in counters.items()
       if k.startswith("lab.fast_forward")}

times = {b["name"]: b["real_time"] for b in bench.get("benchmarks", [])
         if b.get("run_type") != "aggregate"}
speedup = {}
for n in (1, 2, 5, 10):
    warm = times.get("BM_MeasureCheckpointed/%d" % n)
    cold = times.get("BM_MeasureNoCheckpoint/%d" % n)
    if warm and cold:
        speedup["units_%d" % n] = round(cold / warm, 2)

bench["build_type"] = os.environ.get("SIMPROF_BUILD_TYPE", "unknown")
bench["git_sha"] = os.environ.get("SIMPROF_GIT_SHA", "unknown")
bench["host_nproc"] = int(os.environ.get("SIMPROF_NPROC", "0"))
bench["simprof_metrics"] = {
    "ckpt": ckpt,
    "lab": lab,
    "speedup_vs_cold": speedup,
}
with open("BENCH_checkpoint.json", "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
print("folded metrics snapshot into BENCH_checkpoint.json")
print("speedup_vs_cold:", speedup)
EOF
