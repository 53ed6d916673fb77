#include "hw/cache.h"

#include <algorithm>
#include <cstring>

#include "support/serialize.h"

namespace simprof::hw {

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      set_mask_(cfg.num_sets() - 1),
      effective_ways_(cfg.ways),
      ways_((set_mask_ + 1) * cfg.ways, kInvalid) {}

bool Cache::access(LineAddr line) {
  LineAddr* base = ways_.data() + (line & set_mask_) * cfg_.ways;

  // MRU hit: nothing moves, and the MRU slot is always inside the
  // effective ways (there is at least one).
  if (base[0] == line) {
    ++stats_.hits;
    return true;
  }
  // Search the rest MRU→LRU; only the first effective_ways_ slots count as
  // resident. A found line moves to MRU, the ones before it shift down.
  for (std::uint32_t i = 1; i < cfg_.ways; ++i) {
    if (base[i] != line) continue;
    const bool hit = i < effective_ways_;
    std::memmove(base + 1, base, i * sizeof(LineAddr));
    base[0] = line;
    if (hit) {
      ++stats_.hits;
    } else {
      ++stats_.misses;  // present but outside the pressured capacity
    }
    return hit;
  }
  // Miss: insert at MRU, shifting everything down (LRU way falls off).
  std::memmove(base + 1, base, (cfg_.ways - 1) * sizeof(LineAddr));
  base[0] = line;
  ++stats_.misses;
  return false;
}

void Cache::flush() { std::fill(ways_.begin(), ways_.end(), kInvalid); }

void Cache::save_state(BinaryWriter& w) const {
  w.u64(cfg_.size_bytes);
  w.u32(cfg_.ways);
  w.u32(effective_ways_);
  // Stats ride along: PMU counters read miss totals lazily from here, so a
  // restore must bring the counters' source of truth back too.
  w.u64(stats_.hits);
  w.u64(stats_.misses);
  w.vec_u64(ways_);
}

void Cache::load_state(BinaryReader& r) {
  const std::uint64_t size_bytes = r.u64();
  const std::uint32_t ways = r.u32();
  if (size_bytes != cfg_.size_bytes || ways != cfg_.ways) {
    throw SerializeError("corrupt archive: cache geometry mismatch");
  }
  const std::uint32_t eff = r.u32();
  if (eff < 1 || eff > cfg_.ways) {
    throw SerializeError("corrupt archive: effective ways out of range");
  }
  CacheStats stats;
  stats.hits = r.u64();
  stats.misses = r.u64();
  std::vector<LineAddr> tags = r.vec_u64();
  if (tags.size() != ways_.size()) {
    throw SerializeError("corrupt archive: cache tag array size mismatch");
  }
  effective_ways_ = eff;
  stats_ = stats;
  ways_ = std::move(tags);
}

}  // namespace simprof::hw
