#!/bin/sh
# Refresh BENCH_estimators.json — the feature-mode accuracy grid.
#
# Runs perf_estimators: mean CPI sampling error at the Fig. 7 sample size
# for each of the {freq, mav, combined} feature modes under Neyman-allocated
# stratified sampling over the twelve paper configurations, seed-averaged.
# The bench exits non-zero unless the combined feature mode beats freq on
# at least one configuration — the MAV payoff criterion.
#
# The manifest carries sampling_error_frac (freq baseline) and
# mav_sampling_error_frac (combined) as quality figures, so `simprof report`
# gates regressions against previous runs. The fold step appends the
# sample.* counter snapshot under "simprof_metrics" and stamps build
# provenance.
#
# Usage: bench/run_estimators.sh [perf_estimators flags]
set -e
cd "$(dirname "$0")/.."
. bench/bench_prelude.sh
bench_build perf_estimators

metrics_tmp=$(mktemp)
trap 'rm -f "$metrics_tmp"' EXIT

"$BENCH_BUILD_DIR"/bench/perf_estimators \
  --log-level warn \
  --metrics-out "$metrics_tmp" \
  --manifest-out MANIFEST_estimators.json \
  --out BENCH_estimators.json \
  "$@"

python3 - "$metrics_tmp" <<'EOF'
import json, os, sys

with open("BENCH_estimators.json") as f:
    bench = json.load(f)
with open(sys.argv[1]) as f:
    metrics = json.load(f)

counters = metrics.get("counters", {})
fold = {
    "sample": {k.split(".", 1)[1]: v for k, v in counters.items()
               if k.startswith("sample.")},
}

bench["build_type"] = os.environ.get("SIMPROF_BUILD_TYPE", "unknown")
bench["git_sha"] = os.environ.get("SIMPROF_GIT_SHA", "unknown")
bench["simprof_metrics"] = fold
with open("BENCH_estimators.json", "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")

avg = bench["averages"]
print("folded metrics snapshot into BENCH_estimators.json")
print("avg error  freq:", round(avg["freq"], 4),
      " mav:", round(avg["mav"], 4),
      " combined:", round(avg["combined"], 4))
print("combined_beats_freq_cells:", bench["combined_beats_freq_cells"])
EOF
