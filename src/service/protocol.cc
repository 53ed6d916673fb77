#include "service/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "support/assert.h"

namespace simprof::service {

std::string_view to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kOverQuota: return "over_quota";
    case Status::kQueueFull: return "queue_full";
    case Status::kShuttingDown: return "shutting_down";
    case Status::kBadRequest: return "bad_request";
    case Status::kUnknownWorkload: return "unknown_workload";
    case Status::kInternalError: return "internal_error";
  }
  return "unknown";
}

bool is_rejection(Status s) {
  return s == Status::kOverQuota || s == Status::kQueueFull ||
         s == Status::kShuttingDown;
}

void ProfileRequest::write(BinaryWriter& w) const {
  w.str(workload);
  w.str(input);
  w.f64(scale);
  w.u64(seed);
  w.u8(analyze);
  w.u64(sample_n);
  w.u8(want_profile_bytes);
  w.u8(features);
}

ProfileRequest ProfileRequest::read(BinaryReader& r) {
  ProfileRequest q;
  q.workload = r.str();
  q.input = r.str();
  q.scale = r.f64();
  q.seed = r.u64();
  q.analyze = r.u8();
  q.sample_n = r.u64();
  q.want_profile_bytes = r.u8();
  q.features = r.u8();
  return q;
}

void ProfileResult::write(BinaryWriter& w) const {
  w.u8(from_cache);
  w.u64(units);
  w.u64(methods);
  w.f64(oracle_cpi);
  w.u64(phase_count);
  w.f64(estimated_cpi);
  w.f64(standard_error);
  w.vec_u64(selected_units);
  w.vec_f64(weights);
  w.str(profile_bytes);
  w.u8(features);
}

ProfileResult ProfileResult::read(BinaryReader& r) {
  ProfileResult v;
  v.from_cache = r.u8();
  v.units = r.u64();
  v.methods = r.u64();
  v.oracle_cpi = r.f64();
  v.phase_count = r.u64();
  v.estimated_cpi = r.f64();
  v.standard_error = r.f64();
  v.selected_units = r.vec_u64();
  v.weights = r.vec_f64();
  v.profile_bytes = r.str();
  v.features = r.u8();
  return v;
}

void SensitivityRequest::write(BinaryWriter& w) const {
  w.str(workload);
  w.str(input);
  w.f64(scale);
  w.u64(seed);
  w.vec(references, [](BinaryWriter& w2, const std::string& s) { w2.str(s); });
  w.f64(threshold);
}

SensitivityRequest SensitivityRequest::read(BinaryReader& r) {
  SensitivityRequest q;
  q.workload = r.str();
  q.input = r.str();
  q.scale = r.f64();
  q.seed = r.u64();
  q.references =
      r.vec<std::string>([](BinaryReader& r2) { return r2.str(); });
  q.threshold = r.f64();
  return q;
}

void SensitivityResult::write(BinaryWriter& w) const {
  w.u64(phases);
  w.u64(sensitive);
}

SensitivityResult SensitivityResult::read(BinaryReader& r) {
  SensitivityResult v;
  v.phases = r.u64();
  v.sensitive = r.u64();
  return v;
}

void MeasureRequest::write(BinaryWriter& w) const {
  w.str(workload);
  w.str(input);
  w.f64(scale);
  w.u64(seed);
  w.vec_u64(units);
}

MeasureRequest MeasureRequest::read(BinaryReader& r) {
  MeasureRequest q;
  q.workload = r.str();
  q.input = r.str();
  q.scale = r.f64();
  q.seed = r.u64();
  q.units = r.vec_u64();
  return q;
}

void MeasureResultMsg::write(BinaryWriter& w) const {
  w.u8(used_checkpoints);
  w.u8(fallback);
  w.u64(checkpoints_restored);
  w.vec_u64(unit_ids);
  w.vec_f64(cpis);
}

MeasureResultMsg MeasureResultMsg::read(BinaryReader& r) {
  MeasureResultMsg v;
  v.used_checkpoints = r.u8();
  v.fallback = r.u8();
  v.checkpoints_restored = r.u64();
  v.unit_ids = r.vec_u64();
  v.cpis = r.vec_f64();
  return v;
}

void StatsResult::write(BinaryWriter& w) const {
  w.u64(accepted);
  w.u64(rejected);
  w.u64(completed);
  w.u64(queue_depth);
  w.u64(inflight);
  w.u64(admission_level);
}

StatsResult StatsResult::read(BinaryReader& r) {
  StatsResult v;
  v.accepted = r.u64();
  v.rejected = r.u64();
  v.completed = r.u64();
  v.queue_depth = r.u64();
  v.inflight = r.u64();
  v.admission_level = r.u64();
  return v;
}

std::string pack_message(MsgKind kind, std::uint64_t request_id,
                         const std::function<void(BinaryWriter&)>& body) {
  std::ostringstream os;
  BinaryWriter w(os);
  w.u32(kProtocolMagic);
  w.u32(kProtocolVersion);
  w.u32(static_cast<std::uint32_t>(kind));
  w.u64(request_id);
  if (body) body(w);
  return os.str();
}

std::string pack_response(std::uint64_t request_id, Status status,
                          const std::string& message,
                          const std::function<void(BinaryWriter&)>& result) {
  return pack_message(MsgKind::kResponse, request_id, [&](BinaryWriter& w) {
    w.u32(static_cast<std::uint32_t>(status));
    w.str(message);
    if (status == Status::kOk && result) result(w);
  });
}

MessageHeader read_header(BinaryReader& r) {
  if (r.u32() != kProtocolMagic) {
    throw SerializeError("service frame: bad magic");
  }
  const std::uint32_t version = r.u32();
  if (version != kProtocolVersion) {
    throw SerializeError("service frame: unsupported protocol version " +
                         std::to_string(version));
  }
  MessageHeader h;
  h.kind = static_cast<MsgKind>(r.u32());
  h.request_id = r.u64();
  return h;
}

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SIMPROF_EXPECTS(path.size() < sizeof(addr.sun_path),
                  "unix socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  SIMPROF_EXPECTS(fd >= 0, "socket() failed");
  ::unlink(path.c_str());
  sockaddr_un addr = make_addr(path);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw ContractViolation("bind(" + path + ") failed: " +
                            std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw ContractViolation("listen(" + path + ") failed: " +
                            std::strerror(err));
  }
  return fd;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  SIMPROF_EXPECTS(fd >= 0, "socket() failed");
  sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw ContractViolation("connect(" + path + ") failed: " +
                            std::strerror(err));
  }
  return fd;
}

namespace {

bool send_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

/// 1 = got all bytes, 0 = clean EOF before the first byte, -1 = truncated.
int recv_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return got == 0 ? 0 : -1;
    }
    if (r == 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

}  // namespace

bool write_frame(int fd, const std::string& payload) {
  std::uint64_t len = payload.size();
  if (!send_all(fd, &len, sizeof len)) return false;
  return send_all(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::string& payload) {
  std::uint64_t len = 0;
  const int r = recv_all(fd, &len, sizeof len);
  if (r == 0) return false;
  if (r < 0) throw SerializeError("service frame: truncated length prefix");
  if (len > kMaxFrameBytes) {
    throw SerializeError("service frame: oversized frame (" +
                         std::to_string(len) + " bytes)");
  }
  payload.resize(static_cast<std::size_t>(len));
  if (len > 0 && recv_all(fd, payload.data(), payload.size()) != 1) {
    throw SerializeError("service frame: truncated payload");
  }
  return true;
}

}  // namespace simprof::service
