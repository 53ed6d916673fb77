#!/bin/sh
# Refresh BENCH_service.json — the daemon's measured saturation curve.
#
# Runs perf_service, the custom sweep driver for the service layer:
#
#   fixed_sweep        QPS per worker count 1..max (max covers nproc) — the
#                      ground-truth saturation curve; its argmax is the knee.
#   default            the default worker count (nproc). The run fails
#                      (non-zero exit) unless its QPS is within 10% of the
#                      best fixed level — the check that the daemon's
#                      untuned default sits at the knee.
#   offered_load_sweep QPS / p50 / p99 versus offered concurrency on one
#                      resident default-config server — the hockey-stick
#                      curve.
#
# BENCH_service.json stamps num_cpus next to build_type: on one CPU the
# sweep is flat and says nothing about the knee.
#
# The manifest carries service_qps / service_p50_ms / service_p99_ms /
# service_admission_level / service_best_fixed_qps as quality figures, so
# `simprof report` gates regressions against previous runs. The fold step
# appends the svc.* / pool.* counter snapshot under "simprof_metrics" and
# stamps build provenance.
#
# Usage: bench/run_service.sh [perf_service flags, e.g. --max-level 8]
set -e
cd "$(dirname "$0")/.."
. bench/bench_prelude.sh
bench_build perf_service

metrics_tmp=$(mktemp)
trap 'rm -f "$metrics_tmp"' EXIT

"$BENCH_BUILD_DIR"/bench/perf_service \
  --log-level warn \
  --metrics-out "$metrics_tmp" \
  --manifest-out MANIFEST_service.json \
  --out BENCH_service.json \
  "$@"

python3 - "$metrics_tmp" <<'EOF'
import json, os, sys

with open("BENCH_service.json") as f:
    bench = json.load(f)
with open(sys.argv[1]) as f:
    metrics = json.load(f)

counters = metrics.get("counters", {})
fold = {
    "svc": {k.split(".", 1)[1]: v for k, v in counters.items()
            if k.startswith("svc.")},
    "pool": {k.split(".", 1)[1]: v for k, v in counters.items()
             if k.startswith("pool.")},
}
for name in ("svc.queue_wait_ms", "svc.request_ms"):
    hist = metrics.get("quantile_histograms", {}).get(name)
    if hist is not None:
        fold[name] = hist

bench["build_type"] = os.environ.get("SIMPROF_BUILD_TYPE", "unknown")
bench["git_sha"] = os.environ.get("SIMPROF_GIT_SHA", "unknown")
bench["host_nproc"] = int(os.environ.get("SIMPROF_NPROC", "0"))
bench["simprof_metrics"] = fold
with open("BENCH_service.json", "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")

default = bench["default"]
print("folded metrics snapshot into BENCH_service.json")
print("num_cpus:", bench["num_cpus"], "best_fixed:", bench["best_fixed"],
      "default_level:", default["level"],
      "qps_vs_best_fixed:", round(default["qps_vs_best_fixed"], 3))
EOF
