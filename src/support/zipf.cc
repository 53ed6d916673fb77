#include "support/zipf.h"

#include <bit>
#include <cmath>
#include <limits>

#include "support/assert.h"

namespace simprof {

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s) {
  SIMPROF_EXPECTS(n > 0, "Zipf vocabulary must be non-empty");
  SIMPROF_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max(),
                  "Zipf vocabulary too large");
  SIMPROF_EXPECTS(s >= 0.0, "Zipf exponent must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s_);
    cdf_[k] = acc;
  }
  norm_ = acc;
  for (auto& v : cdf_) v /= norm_;
  cdf_.back() = 1.0;  // guard against floating-point shortfall

  const std::size_t buckets = std::bit_ceil(n);
  bucket_scale_ = static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  std::size_t k = 0;
  for (std::size_t j = 0; j <= buckets; ++j) {
    // k = lower_bound(cdf, j/B), clamped to n-1; the edges rise with j, so
    // one forward sweep finds every cutpoint.
    const double edge = static_cast<double>(j) / bucket_scale_;
    while (k + 1 < n && cdf_[k] < edge) ++k;
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

double ZipfSampler::probability(std::size_t rank) const {
  SIMPROF_EXPECTS(rank < cdf_.size(), "rank out of range");
  return 1.0 / std::pow(static_cast<double>(rank + 1), s_) / norm_;
}

}  // namespace simprof
