// The SimProf service daemon: a resident server that owns the lab cache and
// serves concurrent profile / sensitivity / measure requests over a Unix
// domain socket (protocol.h), so N clients share one warm process instead
// of paying CLI startup + cold caches per request.
//
// Thread architecture:
//
//   listener ──accept──▶ reader (one per connection)
//                           │ parse + validate + admission checks
//                           ▼
//                      request queue  ◀── typed rejections happen here:
//                           │             kOverQuota (client in-flight cap),
//                           ▼             kQueueFull, kShuttingDown
//   workers (a fixed pool of `workers` threads; each takes the next queued
//           │ request whenever it is free)
//           │ WorkloadLab::run_batch — concurrent identical configs collapse
//           ▼ to ONE oracle pass via the lab's single-flight (lab.batch_dedup)
//
// Per-client quotas: at most client_max_inflight queued+running requests
// per connection, and streaming requests run their StreamingPhaseFormer
// with max_retained_units capped by stream_retain_cap — the per-client
// memory bound. Interim selections stream back as kStreamUpdate frames
// from the former's update hook, before the final response.
//
// Determinism: request execution is a pure function of the request (the
// lab cache key covers every parameter), so daemon results are bit-identical
// to the one-shot CLI for the same config+seed — enforced by
// tests/service_test.cc via the profile_bytes blob. The worker count only
// decides *when* a request runs, never what it computes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/lab.h"
#include "service/protocol.h"

namespace simprof::service {

struct ServiceConfig {
  std::string socket_path;
  /// Base lab configuration (cache dir, unit size, cores). Per-request
  /// scale/seed override it; use_cache is forced on — the shared warm cache
  /// is the point of a resident daemon.
  core::LabConfig lab;
  /// Worker threads, i.e. requests executed concurrently; 0 means
  /// support::default_thread_count() (the CLI's --threads flag).
  std::size_t workers = 0;
  /// Request queue capacity; arrivals beyond it get kQueueFull.
  std::size_t max_queue = 64;
  /// Per-connection cap on queued+running requests; beyond it, kOverQuota.
  std::size_t client_max_inflight = 8;
  /// Hard cap a streaming request's max_retained_units is clamped to (the
  /// per-client memory quota; 0 lets clients retain everything).
  std::size_t stream_retain_cap = 0;
  /// Threads each request's lab/analysis stages may use. 1 keeps requests
  /// independent (concurrency comes from the worker pool); >1 funnels
  /// concurrent requests through the shared pool's job queue.
  std::size_t request_threads = 1;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;          ///< non-ok responses to accepted work
  std::uint64_t stream_updates = 0;
  std::size_t queue_depth = 0;
  std::size_t inflight = 0;
  std::size_t admission_level = 0;  ///< the worker count
  double uptime_sec = 0.0;
};

class ServiceServer {
 public:
  explicit ServiceServer(ServiceConfig cfg);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Bind the socket and spawn the listener and worker threads. Throws on
  /// bind failure.
  void start();

  /// Begin graceful shutdown: stop accepting connections, answer new
  /// requests with kShuttingDown, let queued + in-flight work drain. Safe
  /// to call from any thread (e.g. a signal-watcher); idempotent.
  void request_stop();

  /// Block until fully drained and every thread is joined. Idempotent.
  void wait();

  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  ServerStats stats() const;
  const ServiceConfig& config() const { return cfg_; }

 private:
  struct Connection;
  using RequestBody =
      std::variant<ProfileRequest, SensitivityRequest, MeasureRequest>;
  struct QueuedRequest {
    std::shared_ptr<Connection> conn;
    MessageHeader header;
    RequestBody body;
    std::chrono::steady_clock::time_point enqueued;
  };

  void listener_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop();

  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& payload);
  void admit(const std::shared_ptr<Connection>& conn,
             const MessageHeader& header, RequestBody body);
  void execute(QueuedRequest& req);
  void run_profile(QueuedRequest& req, const ProfileRequest& q);
  void run_sensitivity(QueuedRequest& req, const SensitivityRequest& q);
  void run_measure(QueuedRequest& req, const MeasureRequest& q);

  void reject(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
              Status status, const std::string& message);
  bool send_payload(const std::shared_ptr<Connection>& conn,
                    const std::string& payload);
  core::WorkloadLab make_lab(double scale, std::uint64_t seed) const;

  ServiceConfig cfg_;
  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> joined_{false};
  std::chrono::steady_clock::time_point start_time_;

  mutable std::mutex mu_;  ///< guards queue_, active_
  std::condition_variable cv_;
  std::deque<QueuedRequest> queue_;
  std::size_t active_ = 0;

  std::thread listener_;
  std::vector<std::thread> workers_;

  mutable std::mutex conns_mu_;
  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
  };
  std::vector<ReaderSlot> readers_;
  std::uint64_t next_conn_id_ = 0;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_quota_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> stream_updates_{0};
};

}  // namespace simprof::service
