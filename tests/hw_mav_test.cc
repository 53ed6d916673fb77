// Differential tests for the MAV reuse tracker: every unit's MavBlock must
// equal a brute-force stack-distance reference, across stream shapes, a unit
// large enough to grow the tracker's storage and saturate bucket 18, and
// enough resets to wrap the tracker's epoch counter.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "hw/mav.h"
#include "support/rng.h"
#include "support/zipf.h"

namespace simprof::hw {
namespace {

using Touch = std::pair<LineAddr, AccessLevel>;
using Unit = std::vector<Touch>;

/// The bucket a finite distance lands in, written out from the MavBlock
/// contract rather than through reuse_bucket().
std::size_t expected_bucket(std::uint64_t d) {
  if (d == 0) return 0;
  const auto w = static_cast<std::size_t>(std::bit_width(d));
  return w < 18 ? w : 18;
}

/// O(n²) reference: scan back to the previous touch of the same line and
/// count the distinct lines strictly between the two touches.
MavBlock brute_force(const Unit& unit) {
  MavBlock b;
  for (std::size_t i = 0; i < unit.size(); ++i) {
    ++b.counts[kReuseBuckets + static_cast<std::size_t>(unit[i].second)];
    std::size_t j = i;
    bool reused = false;
    while (j > 0) {
      if (unit[--j].first == unit[i].first) {
        reused = true;
        break;
      }
    }
    if (!reused) {
      ++b.counts[kColdBucket];
      continue;
    }
    std::set<LineAddr> between;
    for (std::size_t k = j + 1; k < i; ++k) between.insert(unit[k].first);
    ++b.counts[expected_bucket(between.size())];
  }
  return b;
}

/// Scatter small indices over the address space, with many equal low bits,
/// so the tracker's hash sees realistic line addresses.
LineAddr line_of(std::uint64_t idx) { return 0x7f3a00000ull + (idx << 9); }

AccessLevel random_level(Rng& rng) {
  return static_cast<AccessLevel>(rng.next_below(kLevelSlots));
}

MavBlock track(ReuseTracker& t, const Unit& unit) {
  t.reset();
  for (const auto& [line, level] : unit) t.record(line, level);
  return t.block();
}

TEST(ReuseTracker, MatchesBruteForceOnSequentialUniformAndZipfStreams) {
  Rng rng(0x3a11);
  const ZipfSampler zipf(4096, 1.1);
  ReuseTracker tracker;
  for (int kind = 0; kind < 3; ++kind) {
    std::uint64_t cursor = 0;
    for (int u = 0; u < 40; ++u) {
      const std::size_t len = rng.next_below(1500);
      Unit unit;
      for (std::size_t i = 0; i < len; ++i) {
        std::uint64_t idx = 0;
        if (kind == 0) {
          idx = cursor++ % (64 + 16 * static_cast<std::uint64_t>(u));
        } else if (kind == 1) {
          idx = rng.next_below(600);
        } else {
          idx = zipf.sample(rng);
        }
        unit.emplace_back(line_of(idx), random_level(rng));
      }
      const MavBlock got = track(tracker, unit);
      ASSERT_EQ(got, brute_force(unit)) << "stream " << kind << " unit " << u;
      EXPECT_EQ(got.total(), unit.size());
      EXPECT_EQ(tracker.empty(), unit.empty());
    }
  }
}

TEST(ReuseTracker, LargeUnitGrowsStorageAndSaturatesBucket18) {
  // A forward sweep of L lines, then the same lines in reverse: the reverse
  // touch of line x sees exactly the L - 1 - x lines after it, so the unit's
  // reuse distances are 0, 1, ..., L - 1 once each — every bucket, with the
  // distances >= 2^18 saturating into bucket 18. 2L > 2^19 accesses grow the
  // timestamp bitset and the line table well past their initial sizes.
  constexpr std::uint64_t kLines = (1u << 18) + 777;
  Unit unit;
  for (std::uint64_t x = 0; x < kLines; ++x) {
    unit.emplace_back(line_of(x), AccessLevel::kL1);
  }
  for (std::uint64_t x = kLines; x-- > 0;) {
    unit.emplace_back(line_of(x), AccessLevel::kDram);
  }
  MavBlock want;
  want.counts[kColdBucket] = kLines;
  for (std::uint64_t d = 0; d < kLines; ++d) ++want.counts[expected_bucket(d)];
  want.counts[kReuseBuckets + static_cast<std::size_t>(AccessLevel::kL1)] =
      kLines;
  want.counts[kReuseBuckets + static_cast<std::size_t>(AccessLevel::kDram)] =
      kLines;
  ASSERT_GT(want.reuse(18), (1u << 17));  // both halves of bucket 18 filled

  ReuseTracker tracker;
  Rng rng(0xb16);
  for (int round = 0; round < 2; ++round) {
    ASSERT_EQ(track(tracker, unit), want) << "round " << round;
    // Small units after the big one: reset must have cleared all of the
    // grown state, not just the part a small unit would touch.
    for (int u = 0; u < 20; ++u) {
      Unit small;
      const std::size_t len = 1 + rng.next_below(300);
      for (std::size_t i = 0; i < len; ++i) {
        small.emplace_back(line_of(rng.next_below(kLines)), random_level(rng));
        if (rng.next_bool(0.5)) {
          const Touch again = small[rng.next_below(small.size())];
          small.push_back(again);
        }
      }
      ASSERT_EQ(track(tracker, small), brute_force(small)) << "unit " << u;
    }
  }
}

TEST(ReuseTracker, ThousandsOfResetsReuseEpochsExactly) {
  // Unit 0 touches 1000 "old" lines; every later unit touches a few of 16
  // hot lines, and units 65,000..65,999 each touch one old line again. Every
  // unit is non-empty, so the tracker's 16-bit epoch wraps inside that
  // window, back to the epoch unit 0 wrote its table entries with: an entry
  // of unit 0 read as live there would turn a cold touch into a reuse.
  constexpr int kOld = 1000;
  constexpr int kWindow = 65'000;
  ReuseTracker tracker;
  Rng rng(0xe90c);
  for (int u = 0; u < 70'000; ++u) {
    Unit unit;
    if (u == 0) {
      for (int i = 0; i < kOld; ++i) {
        unit.emplace_back(line_of(1000 + i), random_level(rng));
      }
    }
    const std::size_t len = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < len; ++i) {
      unit.emplace_back(line_of(rng.next_below(16)), random_level(rng));
    }
    if (u >= kWindow && u < kWindow + kOld) {
      unit.emplace_back(line_of(1000 + (u - kWindow)), random_level(rng));
    }
    ASSERT_EQ(track(tracker, unit), brute_force(unit)) << "unit " << u;
  }
}

}  // namespace
}  // namespace simprof::hw
