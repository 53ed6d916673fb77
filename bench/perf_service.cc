// Saturation-curve bench for the service daemon (run via
// bench/run_service.sh → BENCH_service.json).
//
// Unlike the perf_* google-benchmark suites this is a custom sweep driver:
// the quantity under test is the whole daemon's throughput knee, not a
// single timed region. Two phases, all against in-process ServiceServer
// instances sharing one warm lab cache (the oracle pass runs once, during
// pre-warm, so every swept request measures dispatch + decode + analysis —
// the daemon's steady-state cost):
//
//   1. Exhaustive fixed sweep — run each worker count 1..max (max is raised
//      to cover the default, nproc) under identical saturating load; the
//      per-level QPS is the measured saturation curve and its argmax is the
//      ground-truth knee (C*, QPS*). The default worker count's QPS must
//      reach within 10% of QPS* or the bench exits non-zero — the check
//      that `workers = nproc` needs no tuning.
//   2. Offered-load sweep — QPS / p50 / p99 versus offered concurrency on
//      one resident default-config server, the hockey-stick latency curve.
//
// Flags (after the common obs flags): --out FILE, --scale F, --max-level N,
// --requests N (per client, fixed sweep).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/loadgen.h"
#include "service/server.h"
#include "support/thread_pool.h"

namespace {

using namespace simprof;

constexpr const char* kWorkload = "grep_sp";
constexpr const char* kInput = "Google";

struct BenchOptions {
  std::string out = "BENCH_service.json";
  /// Request cost must dwarf socket/dispatch overhead or the saturation
  /// curve is all noise; 0.4 gives ~2–3 ms of decode + analysis per request.
  double scale = 0.4;
  std::size_t max_level = 6;
  std::size_t requests_per_client = 80;
};

struct SweepPoint {
  std::size_t level = 0;     ///< worker count (fixed sweep)
  std::size_t offered = 0;   ///< clients × inflight (offered-load sweep)
  double mean_qps = 0.0;     ///< mean across sweep passes (fixed sweep)
  std::vector<service::LoadgenReport> reports;  ///< one per pass
};

core::LabConfig make_lab_config(const BenchOptions& opt,
                                const std::string& cache_dir) {
  core::LabConfig lab = bench::lab_config();
  lab.scale = opt.scale;
  lab.graph_scale_override = 12;
  lab.cache_dir = cache_dir;
  lab.checkpoint_stride = 0;
  return lab;
}

service::LoadgenConfig make_load(const std::string& socket, std::size_t clients,
                                 std::size_t inflight, std::size_t requests,
                                 const BenchOptions& opt) {
  service::LoadgenConfig lg;
  lg.socket_path = socket;
  lg.clients = clients;
  lg.inflight_per_client = inflight;
  lg.requests_per_client = requests;
  lg.workloads = {kWorkload};
  lg.input = kInput;
  lg.scale = opt.scale;
  lg.seed = 42;
  lg.analyze = true;
  lg.sample_n = 8;
  return lg;
}

/// Run one (server config, load) pair to completion; the server is fully
/// drained and joined before the report is returned.
service::LoadgenReport run_once(service::ServiceConfig cfg,
                                const service::LoadgenConfig& load) {
  service::ServiceServer server(std::move(cfg));
  server.start();
  service::LoadgenReport report = service::run_loadgen(load);
  server.request_stop();
  server.wait();
  return report;
}

void write_report(std::ostream& os, const service::LoadgenReport& r) {
  os << "{\"completed\": " << r.completed << ", \"rejected\": " << r.rejected
     << ", \"errors\": " << r.errors << ", \"elapsed_sec\": " << r.elapsed_sec
     << ", \"qps\": " << r.qps << ", \"p50_ms\": " << r.p50_ms
     << ", \"p90_ms\": " << r.p90_ms << ", \"p99_ms\": " << r.p99_ms << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs_session(argc, argv);
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perf_service: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      opt.out = next("--out");
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      opt.scale = std::atof(next("--scale"));
    } else if (std::strcmp(argv[i], "--max-level") == 0) {
      opt.max_level = static_cast<std::size_t>(
          std::strtoull(next("--max-level"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      opt.requests_per_client = static_cast<std::size_t>(
          std::strtoull(next("--requests"), nullptr, 10));
    } else {
      std::fprintf(stderr, "perf_service: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  const std::size_t default_level = support::default_thread_count();
  opt.max_level = std::max({opt.max_level, default_level, std::size_t{2}});

  namespace fs = std::filesystem;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("simprof_perf_service_" + std::to_string(::getpid()));
  fs::create_directories(scratch);
  const std::string socket = (scratch / "sock").string();
  const std::string cache_dir = (scratch / "cache").string();

  obs::ledger().set_config("workload", kWorkload);
  obs::ledger().set_config("input", kInput);
  obs::ledger().set_config("scale", std::to_string(opt.scale));
  obs::ledger().set_config("max_level", std::to_string(opt.max_level));

  service::ServiceConfig base;
  base.socket_path = socket;
  base.lab = make_lab_config(opt, cache_dir);
  base.max_queue = 256;
  base.client_max_inflight = 16;

  // Pre-warm: one request pays the oracle pass so every swept request below
  // measures the daemon's steady state (cache decode + analysis), not a
  // one-time simulation.
  std::fprintf(stderr, "perf_service: pre-warming lab cache...\n");
  {
    service::ServiceConfig warm = base;
    warm.workers = 1;
    run_once(std::move(warm), make_load(socket, 1, 1, 1, opt));
  }

  // Unmeasured warmup burst: lets the allocator, page cache and CPU settle
  // so the first measured level isn't systematically slower (or faster)
  // than the rest.
  {
    service::ServiceConfig cfg = base;
    cfg.workers = 2;
    run_once(std::move(cfg), make_load(socket, 4, 2, 8, opt));
  }

  // Phase 1: exhaustive worker-count sweep at constant offered load.
  // Offered concurrency (clients × inflight) exceeds every swept level so
  // each level runs saturated and the per-level QPS is the curve itself.
  // Two passes per level, averaged: a single pass's argmax is biased high
  // by run-to-run noise (max over N noisy samples), which would unfairly
  // penalise the default level it is compared against.
  constexpr std::size_t kSweepPasses = 2;
  const std::size_t sweep_clients = opt.max_level + 2;
  const std::size_t sweep_inflight = 2;
  std::vector<SweepPoint> fixed_sweep(opt.max_level);
  for (std::size_t level = 1; level <= opt.max_level; ++level) {
    fixed_sweep[level - 1].level = level;
  }
  for (std::size_t pass = 0; pass < kSweepPasses; ++pass) {
    for (std::size_t level = 1; level <= opt.max_level; ++level) {
      service::ServiceConfig cfg = base;
      cfg.workers = level;
      const service::LoadgenReport report = run_once(
          std::move(cfg),
          make_load(socket, sweep_clients, sweep_inflight,
                    opt.requests_per_client, opt));
      std::fprintf(stderr,
                   "perf_service: %zu workers (pass %zu) -> %.1f qps "
                   "(p99 %.1f ms)\n",
                   level, pass + 1, report.qps, report.p99_ms);
      fixed_sweep[level - 1].reports.push_back(report);
    }
  }
  std::size_t best_level = 1;
  double best_qps = 0.0;
  for (auto& pt : fixed_sweep) {
    double sum = 0.0;
    for (const auto& r : pt.reports) sum += r.qps;
    pt.mean_qps = sum / static_cast<double>(pt.reports.size());
    if (pt.mean_qps > best_qps) {
      best_qps = pt.mean_qps;
      best_level = pt.level;
    }
  }

  const SweepPoint& dflt = fixed_sweep[default_level - 1];
  const double default_ratio = best_qps > 0.0 ? dflt.mean_qps / best_qps : 0.0;
  const bool within_10pct = default_ratio >= 0.9;
  std::fprintf(stderr,
               "perf_service: default %zu workers %.1f qps vs best %.1f qps "
               "at %zu workers -> %s\n",
               default_level, dflt.mean_qps, best_qps, best_level,
               within_10pct ? "within 10%" : "MISSED 10%");

  // Phase 2: offered-load sweep on one resident default-config server — the
  // QPS / p50 / p99 hockey-stick as offered concurrency crosses the knee.
  std::vector<SweepPoint> offered_sweep;
  {
    service::ServiceServer server(base);
    server.start();
    for (std::size_t offered : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{6}, std::size_t{8},
                                std::size_t{12}}) {
      service::LoadgenConfig lg =
          make_load(socket, offered, 1, opt.requests_per_client, opt);
      SweepPoint pt;
      pt.offered = offered;
      pt.reports.push_back(service::run_loadgen(lg));
      const auto& rep = pt.reports.back();
      std::fprintf(stderr,
                   "perf_service: offered %2zu -> %.1f qps, p50 %.1f ms, "
                   "p99 %.1f ms\n",
                   offered, rep.qps, rep.p50_ms, rep.p99_ms);
      offered_sweep.push_back(std::move(pt));
    }
    server.request_stop();
    server.wait();
  }

  // Headline figures for the manifest, so `simprof report` gates them: the
  // default worker count's last sweep pass.
  const service::LoadgenReport& headline = dflt.reports.back();
  obs::ledger().set_quality("service_requests",
                            static_cast<double>(headline.completed));
  obs::ledger().set_quality("service_qps", dflt.mean_qps);
  obs::ledger().set_quality("service_p99_ms", headline.p99_ms);
  obs::ledger().set_quality("service_p50_ms", headline.p50_ms);
  obs::ledger().set_quality("service_admission_level",
                            static_cast<double>(default_level));
  obs::ledger().set_quality("service_best_fixed_qps", best_qps);

  std::ofstream os(opt.out);
  if (!os) {
    std::fprintf(stderr, "perf_service: cannot open %s\n", opt.out.c_str());
    return 2;
  }
  os << "{\n";
  const char* build_type = std::getenv("SIMPROF_BUILD_TYPE");
  const char* git_sha = std::getenv("SIMPROF_GIT_SHA");
  os << " \"build_type\": \"" << (build_type ? build_type : "unknown")
     << "\",\n";
  os << " \"num_cpus\": " << std::thread::hardware_concurrency() << ",\n";
  os << " \"git_sha\": \"" << (git_sha ? git_sha : "unknown") << "\",\n";
  os << " \"config\": {\"workload\": \"" << kWorkload << "\", \"input\": \""
     << kInput << "\", \"scale\": " << opt.scale
     << ", \"max_level\": " << opt.max_level
     << ", \"requests_per_client\": " << opt.requests_per_client
     << ", \"sweep_clients\": " << sweep_clients
     << ", \"sweep_inflight\": " << sweep_inflight << "},\n";

  os << " \"fixed_sweep\": [\n";
  for (std::size_t i = 0; i < fixed_sweep.size(); ++i) {
    os << "  {\"level\": " << fixed_sweep[i].level
       << ", \"mean_qps\": " << fixed_sweep[i].mean_qps << ", \"passes\": [";
    for (std::size_t p = 0; p < fixed_sweep[i].reports.size(); ++p) {
      if (p > 0) os << ", ";
      write_report(os, fixed_sweep[i].reports[p]);
    }
    os << "]}" << (i + 1 < fixed_sweep.size() ? "," : "") << "\n";
  }
  os << " ],\n";
  os << " \"best_fixed\": {\"level\": " << best_level
     << ", \"qps\": " << best_qps << "},\n";

  os << " \"default\": {\"level\": " << default_level
     << ", \"qps\": " << dflt.mean_qps
     << ", \"qps_vs_best_fixed\": " << default_ratio
     << ", \"within_10pct\": " << (within_10pct ? "true" : "false")
     << "},\n";

  os << " \"offered_load_sweep\": [\n";
  for (std::size_t i = 0; i < offered_sweep.size(); ++i) {
    os << "  {\"offered\": " << offered_sweep[i].offered << ", \"report\": ";
    write_report(os, offered_sweep[i].reports.front());
    os << "}" << (i + 1 < offered_sweep.size() ? "," : "") << "\n";
  }
  os << " ]\n}\n";
  os.close();

  std::error_code ec;
  fs::remove_all(scratch, ec);

  if (!within_10pct) {
    std::fprintf(stderr,
                 "perf_service: FAIL — default %zu workers qps %.1f < 90%% "
                 "of best fixed qps %.1f\n",
                 default_level, dflt.mean_qps, best_qps);
    return 1;
  }
  std::printf("perf_service: wrote %s (knee level %zu, %.1f qps)\n",
              opt.out.c_str(), best_level, best_qps);
  return 0;
}
