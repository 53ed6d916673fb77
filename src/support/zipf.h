// Zipf-distributed sampling for the text-corpus synthesizer.
//
// BigDataBench's text generator draws words from a power-law vocabulary; the
// skew exponent controls how "heavy" the hot words are, which in turn drives
// the combiner hit-rate and hash-map sizes in WordCount/Grep/NaiveBayes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.h"
#include "support/rng.h"

namespace simprof {

/// Samples ranks in [0, n) with P(rank k) ∝ 1/(k+1)^s by inverting a CDF
/// table built once at construction: a draw u returns the first rank k with
/// cdf[k] >= u, i.e. std::lower_bound over the whole table.
///
/// A guide table (Chen & Asau's cutpoint index) makes that search O(1)
/// expected without changing its answer. The unit interval is cut into
/// B = 2^b >= n buckets. Because B is a power of two, both the bucket index
/// j = ⌊u·B⌋ and the bucket edge j/B are exact in floating point, and
/// guide[j] = lower_bound(cdf, j/B). Since j/B <= u < (j+1)/B and the CDF
/// is non-decreasing, the rank for u lies in [guide[j], guide[j+1]], so a
/// lower_bound over just that slice returns exactly the whole-table index.
/// Each sample makes one next_double() call, as the plain inversion did.
/// The table costs 4·(B+1) bytes on top of the 8·n-byte CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t size() const { return cdf_.size(); }
  double exponent() const { return s_; }

  /// Draw one rank; rank 0 is the most frequent item.
  std::size_t sample(Rng& rng) const { return rank_of(rng.next_double()); }

  /// The rank a uniform draw u in [0, 1) maps to: the first k with
  /// cdf()[k] >= u.
  std::size_t rank_of(double u) const {
    SIMPROF_EXPECTS(u >= 0.0 && u < 1.0, "u outside [0, 1)");
    const auto j = static_cast<std::size_t>(u * bucket_scale_);
    const double* base = cdf_.data();
    return static_cast<std::size_t>(
        std::lower_bound(base + guide_[j], base + guide_[j + 1], u) - base);
  }

  /// Expected probability of a given rank (for tests).
  double probability(std::size_t rank) const;

  /// The normalized CDF the sampler inverts (for exactness tests).
  std::span<const double> cdf() const { return cdf_; }

 private:
  double s_ = 1.0;
  double norm_ = 1.0;
  double bucket_scale_ = 1.0;  // B = 2^b, the guide-table bucket count
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // B + 1 cutpoints into cdf_
};

}  // namespace simprof
