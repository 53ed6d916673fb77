// Service daemon suite: protocol round-trips, and an in-process
// ServiceServer driven over a real Unix socket — bit-identity with the
// one-shot lab, N concurrent same-config clients collapsing to one oracle
// pass, typed over-quota / queue-full / shutting-down / bad-request
// rejections, per-request stream updates under the retention quota, the
// worker-pool size, graceful drain, and a loadgen that survives a
// truncated reply.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/lab.h"
#include "core/phase.h"
#include "core/sampling.h"
#include "features/feature_mode.h"
#include "obs/obs.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/protocol.h"
#include "service/server.h"
#include "support/assert.h"
#include "support/thread_pool.h"

namespace simprof::service {
namespace {

class ScratchDir {
 public:
  ScratchDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("simprof_svc_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

/// Small, fast lab + service configuration on a private socket and cache.
ServiceConfig small_service(const ScratchDir& dir) {
  ServiceConfig cfg;
  cfg.socket_path = dir.str() + "/sock";
  cfg.lab.scale = 0.05;
  cfg.lab.graph_scale_override = 12;
  cfg.lab.cache_dir = dir.str() + "/cache";
  cfg.workers = 4;
  return cfg;
}

template <typename T>
T roundtrip(const T& v) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter w(os);
  v.write(w);
  std::istringstream is(os.str());
  BinaryReader r(is);
  return T::read(r);
}

std::uint64_t counter_value(const char* name) {
  return obs::metrics().counter(name).value();
}

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(ServiceProtocol, ProfileMessagesRoundTrip) {
  ProfileRequest q;
  q.workload = "grep_sp";
  q.input = "Wiki";
  q.scale = 0.125;
  q.seed = 99;
  q.analyze = 0;
  q.sample_n = 3;
  q.want_profile_bytes = 1;
  q.stream = 1;
  q.stream_retain = 77;
  q.features = 2;  // combined
  const ProfileRequest q2 = roundtrip(q);
  EXPECT_EQ(q2.workload, q.workload);
  EXPECT_EQ(q2.input, q.input);
  EXPECT_EQ(q2.scale, q.scale);
  EXPECT_EQ(q2.seed, q.seed);
  EXPECT_EQ(q2.analyze, q.analyze);
  EXPECT_EQ(q2.sample_n, q.sample_n);
  EXPECT_EQ(q2.want_profile_bytes, q.want_profile_bytes);
  EXPECT_EQ(q2.stream, q.stream);
  EXPECT_EQ(q2.stream_retain, q.stream_retain);
  EXPECT_EQ(q2.features, q.features);

  ProfileResult res;
  res.from_cache = 1;
  res.units = 18;
  res.methods = 7;
  res.oracle_cpi = 1.25;
  res.phase_count = 3;
  res.estimated_cpi = 1.24;
  res.standard_error = 0.01;
  res.selected_units = {2, 9, 17};
  res.weights = {0.5, 0.25, 0.25};
  res.profile_bytes = std::string("bin\0ary\x01\xff", 9);  // embedded NULs
  res.features = 1;
  const ProfileResult res2 = roundtrip(res);
  EXPECT_EQ(res2.units, res.units);
  EXPECT_EQ(res2.selected_units, res.selected_units);
  EXPECT_EQ(res2.weights, res.weights);
  EXPECT_EQ(res2.profile_bytes, res.profile_bytes);
  EXPECT_EQ(res2.oracle_cpi, res.oracle_cpi);
  EXPECT_EQ(res2.features, res.features);

  StreamUpdate u;
  u.recluster = 4;
  u.units_ingested = 120;
  u.units_retained = 50;
  u.phase_count = 2;
  u.estimated_cpi = 0.9;
  u.selected_units = {1, 2, 3};
  const StreamUpdate u2 = roundtrip(u);
  EXPECT_EQ(u2.recluster, u.recluster);
  EXPECT_EQ(u2.units_retained, u.units_retained);
  EXPECT_EQ(u2.selected_units, u.selected_units);
}

TEST(ServiceProtocol, SensitivityMeasureStatsRoundTrip) {
  SensitivityRequest s;
  s.workload = "wc_sp";
  s.references = {"grep_sp", "sort_mr"};
  s.threshold = 0.2;
  const SensitivityRequest s2 = roundtrip(s);
  EXPECT_EQ(s2.references, s.references);
  EXPECT_EQ(s2.threshold, s.threshold);

  MeasureRequest m;
  m.workload = "grep_sp";
  m.units = {0, 5, 11};
  EXPECT_EQ(roundtrip(m).units, m.units);

  MeasureResultMsg mr;
  mr.used_checkpoints = 1;
  mr.checkpoints_restored = 3;
  mr.unit_ids = {0, 5, 11};
  mr.cpis = {1.0, 1.5, 2.0};
  const MeasureResultMsg mr2 = roundtrip(mr);
  EXPECT_EQ(mr2.unit_ids, mr.unit_ids);
  EXPECT_EQ(mr2.cpis, mr.cpis);

  StatsResult st;
  st.accepted = 10;
  st.rejected = 2;
  st.admission_level = 4;
  const StatsResult st2 = roundtrip(st);
  EXPECT_EQ(st2.accepted, st.accepted);
  EXPECT_EQ(st2.admission_level, st.admission_level);
}

TEST(ServiceProtocol, HeaderValidatesMagicAndVersion) {
  const std::string ok = pack_message(MsgKind::kProfileRequest, 42);
  std::istringstream is(ok);
  BinaryReader r(is);
  const MessageHeader h = read_header(r);
  EXPECT_EQ(h.kind, MsgKind::kProfileRequest);
  EXPECT_EQ(h.request_id, 42u);

  std::string bad = ok;
  bad[0] = 'X';  // corrupt the magic
  std::istringstream bis(bad);
  BinaryReader br(bis);
  EXPECT_THROW(read_header(br), SerializeError);

  // Any other version — including v2, whose ProfileRequest still carried
  // the estimator byte — is refused at the header.
  for (const std::uint32_t v : {kProtocolVersion - 1, kProtocolVersion + 1}) {
    std::string old = ok;
    for (int i = 0; i < 4; ++i) old[4 + i] = static_cast<char>(v >> (8 * i));
    std::istringstream vis(old);
    BinaryReader vr(vis);
    EXPECT_THROW(read_header(vr), SerializeError) << "version " << v;
  }
}

TEST(ServiceProtocol, StatusTaxonomy) {
  EXPECT_TRUE(is_rejection(Status::kOverQuota));
  EXPECT_TRUE(is_rejection(Status::kQueueFull));
  EXPECT_TRUE(is_rejection(Status::kShuttingDown));
  EXPECT_FALSE(is_rejection(Status::kOk));
  EXPECT_FALSE(is_rejection(Status::kBadRequest));
  EXPECT_EQ(to_string(Status::kOverQuota), "over_quota");
}

// ---------------------------------------------------------------------------
// In-process server over a real Unix socket.

TEST(ServiceServer, HelloStatsAndUnknownWorkload) {
  ScratchDir dir;
  ServiceServer server(small_service(dir));
  server.start();

  ServiceClient client(server.config().socket_path);
  const StatsResult st = client.stats();
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.admission_level, 4u);

  ProfileRequest q;
  q.workload = "no_such_workload";
  const auto reply = client.profile(q);
  EXPECT_EQ(reply.status, Status::kUnknownWorkload);
  EXPECT_FALSE(reply.message.empty());

  server.request_stop();
  server.wait();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.errors, 0u);
}

TEST(ServiceServer, ZeroWorkersMeansTheDefaultThreadCount) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  cfg.workers = 0;
  support::set_default_thread_count(3);
  ServiceServer server(cfg);
  support::set_default_thread_count(0);  // back to hardware_concurrency
  server.start();
  EXPECT_EQ(ServiceClient(cfg.socket_path).stats().admission_level, 3u);
  server.request_stop();
  server.wait();
  EXPECT_EQ(server.stats().admission_level, 3u);
}

TEST(ServiceServer, ProfileBitIdenticalToDirectLab) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  ServiceServer server(cfg);
  server.start();

  ProfileRequest q;
  q.workload = "grep_sp";
  q.seed = 42;
  q.sample_n = 8;
  q.want_profile_bytes = 1;
  ServiceClient client(cfg.socket_path);
  const auto reply = client.profile(q);
  ASSERT_EQ(reply.status, Status::kOk) << reply.message;
  server.request_stop();
  server.wait();

  // One-shot reference in a separate cache dir so nothing is shared.
  ScratchDir ref_dir;
  core::LabConfig lc = cfg.lab;
  lc.scale = q.scale;
  lc.seed = q.seed;
  lc.cache_dir = ref_dir.str() + "/cache";
  lc.threads = 1;
  core::WorkloadLab lab(lc);
  const core::LabRun run = lab.run(q.workload, q.input);
  std::ostringstream os;
  run.profile.save(os);
  EXPECT_EQ(reply.result.profile_bytes, os.str());
  EXPECT_EQ(reply.result.units, run.profile.num_units());
  EXPECT_EQ(reply.result.oracle_cpi, run.profile.oracle_cpi());

  // The analysis riding on the profile matches the library path exactly.
  core::PhaseFormationConfig fc;
  fc.threads = 1;
  const core::PhaseModel model = core::form_phases(run.profile, fc);
  EXPECT_EQ(reply.result.phase_count, model.k);
  const auto n =
      std::min<std::size_t>(q.sample_n, run.profile.num_units());
  const core::SamplePlan plan =
      core::simprof_sample(run.profile, model, n, q.seed);
  EXPECT_EQ(reply.result.estimated_cpi, plan.estimated_cpi);
  EXPECT_EQ(reply.result.standard_error, plan.standard_error);
  ASSERT_EQ(reply.result.selected_units.size(), plan.points.size());
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    EXPECT_EQ(reply.result.selected_units[i],
              run.profile.units[plan.points[i].unit_index].unit_id);
    EXPECT_EQ(reply.result.weights[i], plan.points[i].weight);
  }
}

TEST(ServiceServer, ConcurrentSameConfigClientsShareOneOraclePass) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  ServiceServer server(cfg);
  server.start();

  const std::uint64_t misses0 = counter_value("lab.cache_misses");
  const std::uint64_t shared0 =
      counter_value("lab.batch_dedup") + counter_value("lab.cache_hits");

  constexpr std::size_t kClients = 4;
  std::vector<ServiceClient::ProfileReply> replies(kClients);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ProfileRequest q;
      q.workload = "grep_sp";
      q.want_profile_bytes = 1;
      ServiceClient client(cfg.socket_path);
      replies[i] = client.profile(q);
    });
  }
  for (auto& t : threads) t.join();
  server.request_stop();
  server.wait();

  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_EQ(replies[i].status, Status::kOk) << replies[i].message;
    EXPECT_EQ(replies[i].result.profile_bytes, replies[0].result.profile_bytes)
        << "client " << i << " got a different profile";
  }
  // Exactly one oracle pass ran; every other client shared it, either by
  // waiting on the single-flight (lab.batch_dedup) or by hitting the cache
  // the runner published (lab.cache_hits — run_batch's cache-aware
  // scheduling can probe the cache more than once per request, so ≥).
  EXPECT_EQ(counter_value("lab.cache_misses") - misses0, 1u);
  EXPECT_GE(counter_value("lab.batch_dedup") + counter_value("lab.cache_hits") -
                shared0,
            kClients - 1);
  EXPECT_EQ(server.stats().completed, kClients);
}

TEST(ServiceServer, DistinctFeatureModesShareOraclePassNotAnalysis) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  ServiceServer server(cfg);
  server.start();

  const std::uint64_t misses0 = counter_value("lab.cache_misses");

  // Three requests over ONE workload configuration, one per feature mode.
  // The oracle pass must dedup to a single run (the cache key is
  // mode-independent), while each request gets its own analysis — distinct
  // modes must NOT collapse into one result.
  const std::uint8_t modes[] = {0, 1, 2};
  std::vector<ServiceClient::ProfileReply> replies;
  for (const std::uint8_t mode : modes) {
    ProfileRequest q;
    q.workload = "grep_sp";
    q.want_profile_bytes = 1;
    q.features = mode;
    ServiceClient client(cfg.socket_path);
    replies.push_back(client.profile(q));
  }

  // An out-of-range selector is a typed bad request, not a crash.
  {
    ProfileRequest q;
    q.workload = "grep_sp";
    q.features = 9;
    ServiceClient client(cfg.socket_path);
    EXPECT_EQ(client.profile(q).status, Status::kBadRequest);
  }
  server.request_stop();
  server.wait();

  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].status, Status::kOk) << replies[i].message;
    EXPECT_EQ(replies[i].result.features, modes[i]);
    // Same oracle pass → same profile bytes for every mode.
    EXPECT_EQ(replies[i].result.profile_bytes, replies[0].result.profile_bytes);
  }
  EXPECT_EQ(counter_value("lab.cache_misses") - misses0, 1u);

  // Each reply's analysis is bit-identical to the library run under its own
  // mode — the proof that per-request analysis was not deduped.
  std::istringstream is(replies[0].result.profile_bytes);
  const core::ThreadProfile profile = core::ThreadProfile::load(is);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    core::PhaseFormationConfig fc;
    fc.features = static_cast<features::FeatureMode>(modes[i]);
    fc.threads = 1;
    const core::PhaseModel model = core::form_phases(profile, fc);
    EXPECT_EQ(replies[i].result.phase_count, model.k) << "case " << i;
    const auto n = std::min<std::size_t>(8, profile.num_units());
    const core::SamplePlan plan = core::simprof_sample(profile, model, n, 42);
    EXPECT_EQ(replies[i].result.estimated_cpi, plan.estimated_cpi)
        << "case " << i;
    EXPECT_EQ(replies[i].result.standard_error, plan.standard_error)
        << "case " << i;
  }
}

TEST(ServiceServer, OverQuotaIsATypedRejectionNotAHang) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  cfg.client_max_inflight = 1;
  ServiceServer server(cfg);
  server.start();

  // A closed loop pushing 3 in-flight against a quota of 1: the overflow
  // must come back as immediate kOverQuota responses, never hang.
  LoadgenConfig lg;
  lg.socket_path = cfg.socket_path;
  lg.clients = 1;
  lg.requests_per_client = 6;
  lg.inflight_per_client = 3;
  const LoadgenReport report = run_loadgen(lg);
  server.request_stop();
  server.wait();

  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.completed + report.rejected, 6u);
  EXPECT_GT(report.completed, 0u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_EQ(server.stats().rejected_quota, report.rejected);
}

TEST(ServiceServer, FullQueueIsATypedRejection) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  cfg.max_queue = 0;  // nothing fits: every request is rejected typed
  ServiceServer server(cfg);
  server.start();

  ProfileRequest q;
  q.workload = "grep_sp";
  ServiceClient client(cfg.socket_path);
  const auto reply = client.profile(q);
  EXPECT_EQ(reply.status, Status::kQueueFull);
  server.request_stop();
  server.wait();
  EXPECT_EQ(server.stats().rejected_queue_full, 1u);
}

TEST(ServiceServer, OverflowingScaleIsABadRequest) {
  // 8e6 words per unit of scale: 1e300 would overflow the uint64 word
  // count, so the workload refuses it instead of converting.
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  ServiceServer server(cfg);
  server.start();
  ProfileRequest q;
  q.workload = "grep_sp";
  q.scale = 1e300;
  EXPECT_EQ(ServiceClient(cfg.socket_path).profile(q).status,
            Status::kBadRequest);
  server.request_stop();
  server.wait();
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServiceServer, StreamingProfileSendsInterimSelections) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  cfg.stream_retain_cap = 12;  // per-client memory quota, below the 18 units
  ServiceServer server(cfg);
  server.start();

  ProfileRequest q;
  q.workload = "grep_sp";
  q.stream = 1;
  q.stream_retain = 64;  // asks high; the server clamps to its cap
  q.sample_n = 4;
  std::vector<StreamUpdate> updates;
  ServiceClient client(cfg.socket_path);
  const auto reply = client.profile(
      q, [&](const StreamUpdate& u) { updates.push_back(u); });
  server.request_stop();
  server.wait();

  ASSERT_EQ(reply.status, Status::kOk) << reply.message;
  EXPECT_GE(reply.result.phase_count, 1u);
  ASSERT_FALSE(updates.empty());  // 18 units > 16-unit warmup → ≥1 recluster
  for (const StreamUpdate& u : updates) {
    EXPECT_LE(u.units_retained, 12u) << "retention quota exceeded";
    EXPECT_GE(u.phase_count, 1u);
  }
  EXPECT_EQ(server.stats().stream_updates, updates.size());
}

TEST(ServiceServer, GracefulDrainFinishesInFlightAndRejectsNew) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  ServiceServer server(cfg);
  server.start();

  // Raw frames so request B can be sent while A is still in flight.
  const int fd = connect_unix(cfg.socket_path);
  ProfileRequest q;
  q.workload = "grep_sp";
  ASSERT_TRUE(write_frame(
      fd, pack_message(MsgKind::kProfileRequest, 1,
                       [&](BinaryWriter& w) { q.write(w); })));
  // Let A get admitted (a cold oracle pass holds it in flight for a while),
  // then start the drain and submit B.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.request_stop();
  ASSERT_TRUE(write_frame(
      fd, pack_message(MsgKind::kProfileRequest, 2,
                       [&](BinaryWriter& w) { q.write(w); })));

  Status status_a = Status::kInternalError;
  Status status_b = Status::kInternalError;
  std::string payload;
  int answered = 0;
  while (answered < 2 && read_frame(fd, payload)) {
    std::istringstream is(payload);
    BinaryReader r(is);
    const MessageHeader h = read_header(r);
    if (h.kind != MsgKind::kResponse) continue;
    const auto status = static_cast<Status>(r.u32());
    if (h.request_id == 1) status_a = status;
    if (h.request_id == 2) status_b = status;
    ++answered;
  }
  ::close(fd);
  server.wait();

  EXPECT_EQ(status_a, Status::kOk);  // in-flight work drains to completion
  EXPECT_EQ(status_b, Status::kShuttingDown);
  EXPECT_EQ(server.stats().completed, 1u);
  EXPECT_EQ(server.stats().rejected_shutdown, 1u);
  // The socket file is gone after wait() — a restart can bind cleanly.
  EXPECT_FALSE(std::filesystem::exists(cfg.socket_path));
}

TEST(ServiceServer, StopRequestedBeforeStartDrainsPromptly) {
  // A drain requested before start() — a SIGTERM landing between the
  // daemon's bind and its first accept — must make start() + wait() return
  // at once (no hang, no thread left behind) and remove the socket.
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  ServiceServer server(cfg);
  server.request_stop();
  const auto t0 = std::chrono::steady_clock::now();
  server.start();
  server.wait();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_TRUE(server.stopping());
  EXPECT_EQ(server.stats().completed, 0u);
  EXPECT_FALSE(std::filesystem::exists(cfg.socket_path));
}

TEST(ServiceServer, MeasureAndSensitivityVerbsWork) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  ServiceServer server(cfg);
  server.start();
  ServiceClient client(cfg.socket_path);

  // Profile first so the cache and checkpoint archives exist.
  ProfileRequest pq;
  pq.workload = "grep_sp";
  const auto pr = client.profile(pq);
  ASSERT_EQ(pr.status, Status::kOk) << pr.message;
  ASSERT_GE(pr.result.selected_units.size(), 2u);

  MeasureRequest mq;
  mq.workload = "grep_sp";
  mq.units = {pr.result.selected_units[0], pr.result.selected_units[1]};
  const auto mr = client.measure(mq);
  ASSERT_EQ(mr.status, Status::kOk) << mr.message;
  EXPECT_EQ(mr.result.unit_ids.size(), 2u);

  SensitivityRequest sq;
  sq.workload = "grep_sp";
  sq.references = {"wc_sp"};
  const auto sr = client.sensitivity(sq);
  ASSERT_EQ(sr.status, Status::kOk) << sr.message;
  EXPECT_GE(sr.result.phases, 1u);

  server.request_stop();
  server.wait();
  EXPECT_EQ(server.stats().completed, 3u);
  EXPECT_EQ(server.stats().errors, 0u);
}

// ---------------------------------------------------------------------------
// Load generator against a misbehaving peer.

TEST(ServiceLoadgen, TruncatedReplyCountsAsErrorsNotACrash) {
  // A fake daemon acks the hello, then answers the first request with a
  // kResponse frame that ends right after its header (no status word).
  ScratchDir dir;
  const std::string path = dir.str() + "/fake.sock";
  const int listen_fd = listen_unix(path);
  std::thread peer([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    std::string payload;
    while (read_frame(fd, payload)) {
      std::istringstream is(payload);
      BinaryReader r(is);
      const MessageHeader h = read_header(r);
      if (h.kind == MsgKind::kHello) {
        write_frame(fd, pack_message(MsgKind::kHelloAck, h.request_id));
      } else {
        write_frame(fd, pack_message(MsgKind::kResponse, h.request_id));
      }
    }
    ::close(fd);
  });

  LoadgenConfig lg;
  lg.socket_path = path;
  lg.clients = 1;
  lg.requests_per_client = 2;
  lg.inflight_per_client = 2;  // both requests outstanding at the bad frame
  const LoadgenReport report = run_loadgen(lg);
  peer.join();
  ::close(listen_fd);

  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.errors, lg.requests_per_client);
}

}  // namespace
}  // namespace simprof::service
