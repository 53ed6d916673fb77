#include "hw/mav.h"

#include <bit>
#include <cstring>

namespace simprof::hw {

namespace {
/// Fibonacci hashing: the top bits of line * 2^64/phi index the table.
constexpr std::uint64_t kHashMul = 0x9E3779B97F4A7C15ull;
}  // namespace

std::size_t reuse_bucket(std::uint64_t distance) {
  if (distance == 0) return 0;
  const auto width = static_cast<std::size_t>(std::bit_width(distance));
  return width < kColdBucket - 1 ? width : kColdBucket - 1;
}

std::uint64_t MavBlock::total() const {
  std::uint64_t t = 0;
  for (std::size_t b = 0; b < kReuseBuckets; ++b) t += counts[b];
  return t;
}

void ReuseTracker::grow_table() {
  // Double (1024 slots at first) and re-insert the live entries; stale
  // epochs are dropped, so the new table holds only this unit's lines.
  const std::size_t cap = slots_.empty() ? 1024 : slots_.size() * 2;
  std::vector<Slot> old(cap);
  old.swap(slots_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
  const std::size_t mask = cap - 1;
  for (const Slot& s : old) {
    if (s.epoch != epoch_) continue;
    std::size_t i = (s.line * kHashMul) >> shift_;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void ReuseTracker::grow_marks() {
  // Double the timestamp capacity (1024 at first). The new bitset words are
  // zero, but a resized Fenwick tree's new nodes cover old words, so the
  // tree is rebuilt from the words' popcounts in O(words). Amortized O(1)
  // per access.
  std::size_t words = bits_.empty() ? 16 : bits_.size() * 2;
  while (words * 64 <= now_) words *= 2;
  bits_.resize(words, 0);
  fen_.assign(words + 1, 0);
  for (std::size_t i = 1; i <= words; ++i) {
    fen_[i] += static_cast<std::uint64_t>(std::popcount(bits_[i - 1]));
    const std::size_t up = i + (i & (~i + 1));
    if (up <= words) fen_[up] += fen_[i];
  }
}

void ReuseTracker::add(std::uint64_t word, std::uint64_t delta) {
  for (std::uint64_t i = word + 1; i < fen_.size(); i += i & (~i + 1)) {
    fen_[i] += delta;
  }
}

std::uint64_t ReuseTracker::marks_through(std::uint64_t t) const {
  const std::uint64_t word = t >> 6;
  std::uint64_t s = static_cast<std::uint64_t>(
      std::popcount(bits_[word] & (~std::uint64_t{0} >> (63 - (t & 63)))));
  for (std::uint64_t i = word; i > 0; i -= i & (~i + 1)) s += fen_[i];
  return s;
}

void ReuseTracker::record(LineAddr line, AccessLevel level) {
  ++block_.counts[kReuseBuckets + static_cast<std::size_t>(level)];
  const std::uint64_t now = ++now_;
  if (now >= bits_.size() * 64) grow_marks();
  if ((distinct_ + 1) * 2 > slots_.size()) grow_table();

  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (line * kHashMul) >> shift_;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.epoch != epoch_) {
      s = Slot{line, now, epoch_};
      ++distinct_;
      ++block_.counts[kColdBucket];
      break;
    }
    if (s.line != line) continue;
    // Distinct lines touched strictly between the previous touch t0 and
    // now: every line's most recent touch carries one mark, all of them
    // before now, and t0's own mark is the last one at or before t0 — so
    // the count is distinct_ minus the marks at or before t0.
    const std::uint64_t t0 = s.t;
    ++block_.counts[reuse_bucket(distinct_ - marks_through(t0))];
    bits_[t0 >> 6] &= ~(std::uint64_t{1} << (t0 & 63));
    add(t0 >> 6, static_cast<std::uint64_t>(-1));
    s.t = now;
    break;
  }
  bits_[now >> 6] |= std::uint64_t{1} << (now & 63);
  add(now >> 6, 1);
}

void ReuseTracker::reset() {
  block_ = MavBlock{};
  if (now_ == 0) return;
  if (++epoch_ == 0) {
    // The 16-bit epoch wrapped: restamp every slot as empty so no entry
    // from 65535 resets ago reads as live.
    for (Slot& s : slots_) s.epoch = 0;
    epoch_ = 1;
  }
  // Only words [0, k) were marked. The Fenwick nodes that cover them are
  // nodes [1, k] plus the nodes above k on k's update path (any node that
  // covers a word before k also covers word k - 1), so clearing costs
  // O(k + log) rather than the whole grown capacity.
  const std::uint64_t k = (now_ >> 6) + 1;
  std::memset(bits_.data(), 0, k * sizeof(bits_[0]));
  std::memset(fen_.data(), 0, (k + 1) * sizeof(fen_[0]));
  for (std::uint64_t i = k + (k & (~k + 1)); i < fen_.size();
       i += i & (~i + 1)) {
    fen_[i] = 0;
  }
  distinct_ = 0;
  now_ = 0;
}

}  // namespace simprof::hw
