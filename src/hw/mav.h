// Memory-access vectors (MAV): per-unit memory-behaviour signatures.
//
// "Memory Access Vectors" (Caculo et al.) showed that sampling fidelity
// improves when sampling units are characterized by *memory behaviour*, not
// just instruction mix. This module gives the oracle pass that vocabulary:
// while the profiled core replays its references through the cache
// hierarchy, a ReuseTracker folds every touch into a fixed-width MavBlock —
// a log2-bucketed reuse-distance histogram plus a which-level-served-it
// histogram. The block is reset at every sampling-unit boundary, so a unit's
// MAV depends only on the unit's own reference stream (plus the warm cache
// state it inherited, via the level histogram) — which is exactly what makes
// checkpointed tape replay reproduce it bit-identically: restore the cache
// state, re-execute the unit's tape, and the tracker sees the same touches
// in the same order.
//
// Reuse distance here is the classic stack distance: the number of
// *distinct* cache lines touched between two consecutive touches of the same
// line, computed exactly with a last-position table plus a Fenwick tree over
// a bitset of access timestamps (O(log n) per access, n = accesses within
// the unit; no allocation once the tracker has grown to the largest unit).
// First touches within a unit land in the dedicated cold bucket — the
// tracker is intra-unit by construction, so "cold" means "no prior touch in
// this unit", a deterministic property of the unit itself.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw/cache.h"

namespace simprof::hw {

/// Which level of the hierarchy served a reference (cost-model order).
enum class AccessLevel : std::uint8_t {
  kL1 = 0,
  kL2 = 1,
  kLlc = 2,
  kDram = 3,
  kDramPrefetched = 4,
};

/// Reuse-distance buckets: bucket 0 holds distance 0 (immediate re-touch),
/// bucket b in [1, 18] holds distances with bit_width d == b (i.e. d in
/// [2^(b-1), 2^b)), saturating at bucket 18; bucket 19 is the cold bucket
/// (first touch of the line within the unit).
inline constexpr std::size_t kReuseBuckets = 20;
inline constexpr std::size_t kColdBucket = kReuseBuckets - 1;
/// One slot per AccessLevel value.
inline constexpr std::size_t kLevelSlots = 5;
/// Total MAV width: reuse histogram followed by the level histogram.
inline constexpr std::size_t kMavDim = kReuseBuckets + kLevelSlots;

/// Reuse-distance bucket for a finite stack distance.
std::size_t reuse_bucket(std::uint64_t distance);

/// One sampling unit's memory-access vector: counts[0, kReuseBuckets) is the
/// reuse-distance histogram (cold touches in kColdBucket), counts at
/// kReuseBuckets + level is the per-level service histogram. Both halves sum
/// to the number of tracked line touches.
struct MavBlock {
  std::array<std::uint64_t, kMavDim> counts{};

  std::uint64_t reuse(std::size_t bucket) const { return counts[bucket]; }
  std::uint64_t level(AccessLevel l) const {
    return counts[kReuseBuckets + static_cast<std::size_t>(l)];
  }
  std::uint64_t total() const;

  bool operator==(const MavBlock&) const = default;
};

/// Exact intra-unit reuse-distance tracker. Feed it every line touch of the
/// profiled core (in execution order) with the level that served it; read
/// block() at the unit boundary and reset(). State is O(distinct lines +
/// accesses / 8 bytes) of the largest unit seen; reset is O(accesses / 64)
/// and keeps capacity, so steady-state units do not reallocate.
class ReuseTracker {
 public:
  void record(LineAddr line, AccessLevel level);
  void reset();
  const MavBlock& block() const { return block_; }
  /// No touches recorded since the last reset (checkpoint sequence points
  /// happen exactly here, so trackers never need snapshotting).
  bool empty() const { return now_ == 0; }

 private:
  /// One open-addressed entry: a line's most recent timestamp. Only entries
  /// stamped with the current epoch are live, so reset() empties the table
  /// by bumping the epoch instead of clearing it.
  struct Slot {
    LineAddr line = 0;
    std::uint64_t t = 0;
    std::uint16_t epoch = 0;
  };

  void grow_table();
  void grow_marks();
  void add(std::uint64_t word, std::uint64_t delta);
  std::uint64_t marks_through(std::uint64_t t) const;

  MavBlock block_;
  std::vector<Slot> slots_;  ///< power of two, at most half full
  unsigned shift_ = 64;      ///< 64 - log2(slots_.size()), for the hash
  std::uint16_t epoch_ = 1;  ///< slots start at epoch 0, i.e. empty
  std::uint64_t distinct_ = 0;  ///< live entries: lines touched since reset
  /// Bit t is set iff timestamp t is the *most recent* touch of some line;
  /// fen_ is a Fenwick tree (1-based) over the words' popcounts, so the
  /// marks at or before t cost one prefix walk plus one masked popcount.
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> fen_;
  std::uint64_t now_ = 0;
};

}  // namespace simprof::hw
