#include "service/loadgen.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "support/assert.h"

namespace simprof::service {

namespace {

using Clock = std::chrono::steady_clock;

struct ClientTally {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t stream_updates = 0;
  std::vector<double> latencies_ms;
};

/// One connection's closed loop: keep up to `inflight` requests outstanding,
/// sending the next as each response lands, until `total` were issued and
/// every outstanding one is answered.
ClientTally run_client(const LoadgenConfig& cfg, std::size_t client_index) {
  ClientTally tally;
  int fd = -1;
  try {
    fd = connect_unix(cfg.socket_path);
  } catch (const ContractViolation&) {
    tally.errors = cfg.requests_per_client;
    return tally;
  }

  std::unordered_map<std::uint64_t, Clock::time_point> outstanding;
  std::uint64_t next_id = 0;
  std::size_t sent = 0;

  const auto send_next = [&]() -> bool {
    const std::uint64_t id = ++next_id;
    const std::size_t req_index = client_index * cfg.requests_per_client + sent;
    ProfileRequest q;
    q.workload = cfg.workloads[req_index % cfg.workloads.size()];
    q.input = cfg.input;
    q.scale = cfg.scale;
    q.seed = cfg.vary_seed ? cfg.seed + req_index : cfg.seed;
    q.analyze = cfg.analyze ? 1 : 0;
    q.sample_n = cfg.sample_n;
    q.stream = cfg.stream ? 1 : 0;
    q.stream_retain = cfg.stream_retain;
    q.features = cfg.features;
    const auto payload = pack_message(MsgKind::kProfileRequest, id,
                                      [&](BinaryWriter& w) { q.write(w); });
    outstanding.emplace(id, Clock::now());
    ++sent;
    if (!write_frame(fd, payload)) {
      outstanding.erase(id);
      ++tally.errors;
      return false;
    }
    return true;
  };

  bool transport_ok = true;
  while (transport_ok && sent < cfg.requests_per_client &&
         outstanding.size() < cfg.inflight_per_client) {
    transport_ok = send_next();
  }

  std::string payload;
  while (transport_ok && !outstanding.empty()) {
    try {
      if (!read_frame(fd, payload)) break;
    } catch (const SerializeError&) {
      break;
    }
    std::istringstream is(payload);
    BinaryReader r(is);
    MessageHeader h;
    Status status = Status::kOk;
    try {
      h = read_header(r);
      if (h.kind == MsgKind::kResponse) status = static_cast<Status>(r.u32());
    } catch (const SerializeError&) {
      break;  // a malformed frame ends the loop like a dropped connection
    }
    if (h.kind == MsgKind::kStreamUpdate) {
      ++tally.stream_updates;
      continue;
    }
    if (h.kind != MsgKind::kResponse) continue;
    const auto it = outstanding.find(h.request_id);
    if (it == outstanding.end()) continue;
    if (status == Status::kOk) {
      ++tally.completed;
      tally.latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - it->second)
              .count());
    } else if (is_rejection(status)) {
      ++tally.rejected;
    } else {
      ++tally.errors;
    }
    outstanding.erase(it);
    if (sent < cfg.requests_per_client) transport_ok = send_next();
  }
  tally.errors += outstanding.size();  // unanswered at disconnect
  ::close(fd);
  return tally;
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenConfig& cfg) {
  SIMPROF_EXPECTS(!cfg.workloads.empty(), "loadgen: empty workload mix");
  SIMPROF_EXPECTS(cfg.inflight_per_client >= 1, "loadgen: inflight must be >= 1");

  std::vector<ClientTally> tallies(cfg.clients);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cfg.clients);
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    threads.emplace_back(
        [&, c] { tallies[c] = run_client(cfg, c); });
  }
  for (auto& t : threads) t.join();

  LoadgenReport report;
  report.elapsed_sec = std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& t : tallies) {
    report.completed += t.completed;
    report.rejected += t.rejected;
    report.errors += t.errors;
    report.stream_updates += t.stream_updates;
    report.latencies_ms.insert(report.latencies_ms.end(),
                               t.latencies_ms.begin(), t.latencies_ms.end());
  }
  std::sort(report.latencies_ms.begin(), report.latencies_ms.end());
  report.qps = report.elapsed_sec > 0.0
                   ? static_cast<double>(report.completed) / report.elapsed_sec
                   : 0.0;
  report.p50_ms = sorted_quantile(report.latencies_ms, 0.50);
  report.p90_ms = sorted_quantile(report.latencies_ms, 0.90);
  report.p99_ms = sorted_quantile(report.latencies_ms, 0.99);
  return report;
}

}  // namespace simprof::service
