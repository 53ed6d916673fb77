// Closed-loop load generator for the service daemon: `clients` connections,
// each keeping up to `inflight_per_client` requests pipelined on its socket,
// cycling through a workload mix. Produces the saturation-curve raw
// material: completions, typed rejections, and client-observed latency
// quantiles (send → final response, including queueing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace simprof::service {

struct LoadgenConfig {
  std::string socket_path;
  std::size_t clients = 4;
  std::size_t requests_per_client = 8;
  /// Pipelining depth per connection — offered load is roughly
  /// clients × inflight. Set above the server's client_max_inflight to
  /// exercise typed kOverQuota rejections.
  std::size_t inflight_per_client = 1;
  /// Round-robin workload mix (must be non-empty valid names).
  std::vector<std::string> workloads{"grep_sp"};
  std::string input = "Google";
  double scale = 0.05;
  std::uint64_t seed = 42;
  bool analyze = true;
  std::uint64_t sample_n = 8;
  bool stream = false;
  std::uint64_t stream_retain = 0;
  /// features::FeatureMode ordinal for phase formation (protocol v2).
  std::uint8_t features = 0;
  /// Vary the seed per request (seed + request index) so the sweep exercises
  /// distinct oracle passes; false keeps every request on one cache key,
  /// the single-flight stress mode.
  bool vary_seed = false;
};

struct LoadgenReport {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;        ///< typed kOverQuota/kQueueFull/kShuttingDown
  std::uint64_t errors = 0;          ///< transport failures + error statuses
  std::uint64_t stream_updates = 0;
  double elapsed_sec = 0.0;
  double qps = 0.0;                  ///< completed / elapsed
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<double> latencies_ms;  ///< per-completed-request, sorted
};

LoadgenReport run_loadgen(const LoadgenConfig& cfg);

}  // namespace simprof::service
