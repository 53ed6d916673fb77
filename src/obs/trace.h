// RAII trace spans emitted as Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto).
//
//   obs::ObsSpan span("kmeans.lloyd", {{"k", k}});
//
// Two timelines share one trace file, distinguished by pid:
//   * pid 1 "wall-clock"    — host time of pipeline work (spans use
//     steady_clock; tid = the logger's small per-thread tag), and
//   * pid 2 "virtual-clock" — simulated time of the workload under study
//     (stage/task/spill/shuffle events; ts = virtual cycles at the 2 GHz
//     virtual clock; tid = simulated core, plus a stage summary lane).
//
// Zero-cost-when-off: every emitter checks trace_enabled() (one relaxed
// atomic load) before touching the clock or allocating; TraceArg holds PODs
// and only renders to JSON at emission time. Collection is buffered in
// memory under a mutex (event rates are per-job/per-stage, not per-row) and
// written by write_trace(). The buffer is capped; overflow increments the
// `trace.dropped_events` counter instead of growing without bound.
//
// Determinism contract: tracing never reads RNG state and never feeds back
// into any computation — enabling it cannot perturb results (asserted by
// tests/obs_test.cc's bit-identity tests).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace simprof::obs {

/// Virtual-clock frequency used to place virtual-timeline events in
/// microseconds (matches bench_common.h's kClockGhz).
inline constexpr double kVirtualClockGhz = 2.0;

/// The virtual-timeline lane used for per-stage summary spans (per-task
/// spans use the simulated core id as their lane).
inline constexpr std::uint32_t kVirtualStageLane = 99;

/// One "args" entry of a trace event. Keys are expected to be string
/// literals; values are stored as PODs (or one string) and rendered to JSON
/// only when the event is emitted.
struct TraceArg {
  enum class Kind { kInt, kUint, kDouble, kBool, kString };

  const char* key;
  Kind kind;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
  std::string s;

  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  TraceArg(const char* k, T v) : key(k) {
    if constexpr (std::is_signed_v<T>) {
      kind = Kind::kInt;
      i = static_cast<std::int64_t>(v);
    } else {
      kind = Kind::kUint;
      u = static_cast<std::uint64_t>(v);
    }
  }
  TraceArg(const char* k, double v) : key(k), kind(Kind::kDouble), d(v) {}
  TraceArg(const char* k, bool v) : key(k), kind(Kind::kBool), b(v) {}
  TraceArg(const char* k, std::string_view v)
      : key(k), kind(Kind::kString), s(v) {}
  TraceArg(const char* k, const char* v)
      : key(k), kind(Kind::kString), s(v) {}
};

/// True while a trace session is collecting. One relaxed atomic load.
bool trace_enabled();

/// Begin collecting (resets the wall-clock origin; keeps buffered events).
void start_tracing();

/// Stop collecting. Buffered events stay available for serialization.
void stop_tracing();

/// Drop all buffered events (and per-lane metadata).
void clear_trace();

/// Serialize the buffer as a Chrome trace-event JSON object.
std::string trace_to_json();

/// One aggregated row of the span-rollup profile (see span_rollup()).
struct SpanRollupRow {
  std::string name;
  bool virtual_timeline = false;  ///< virtual-clock (µs are cycles/2000)
  std::uint64_t count = 0;
  double total_us = 0.0;  ///< inclusive time
  double self_us = 0.0;   ///< total minus nested same-lane spans (≥ 0)
  double max_us = 0.0;    ///< longest single span
};

/// Aggregate the buffered complete ('X') events into a per-name profile:
/// call counts, inclusive time and self time (inclusive minus the time of
/// spans nested inside on the same lane, each clipped to its overlap with
/// the parent so a child that overruns it cannot make self time negative),
/// sorted by (timeline, name).
///
/// Determinism contract: spans instrument logical work items (a stage, a
/// candidate k, a cache load), so the rollup's (name, count) sequence is
/// bit-identical across thread counts; wall-clock times are measurements
/// and vary, virtual-clock times are simulated and deterministic. Spans
/// named "pool.*" (scheduling internals whose count legitimately depends
/// on --threads) are excluded to keep the contract honest.
std::vector<SpanRollupRow> span_rollup();

/// A currently-open wall-clock span (flight-recorder live dump).
struct OpenSpanInfo {
  std::string name;
  std::uint32_t tid = 0;
  double elapsed_us = 0.0;
};

/// Snapshot of the spans open right now, oldest first. Only populated while
/// tracing is enabled (spans arm on construction).
std::vector<OpenSpanInfo> open_spans();

/// Serialize to `path` (logs an error and returns false on I/O failure).
bool write_trace(const std::string& path);

/// Wall-clock RAII span. Constructing with tracing disabled is free apart
/// from building the (POD) argument list.
class ObsSpan {
 public:
  ObsSpan() = default;
  explicit ObsSpan(const char* name) : ObsSpan(name, {}) {}
  ObsSpan(const char* name, std::initializer_list<TraceArg> args);
  ~ObsSpan();
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  bool armed_ = false;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::string args_json_;  // pre-rendered "{…}" or empty
};

/// Wall-clock instant event.
void trace_instant(const char* name, std::initializer_list<TraceArg> args = {});

/// Complete event on the virtual timeline: [start_cycles, end_cycles] of a
/// simulated core's clock, on lane `vtid` (core id or kVirtualStageLane).
void trace_virtual_span(std::string_view name, std::uint64_t start_cycles,
                        std::uint64_t end_cycles, std::uint32_t vtid,
                        std::initializer_list<TraceArg> args = {});

/// Instant event on the virtual timeline.
void trace_virtual_instant(std::string_view name, std::uint64_t cycles,
                           std::uint32_t vtid,
                           std::initializer_list<TraceArg> args = {});

}  // namespace simprof::obs
