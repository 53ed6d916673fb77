// Input-sensitivity test (Section III-D, Algorithm 1): classify the
// sampling units of reference inputs onto the training input's phase
// centers, compare per-phase CPI mean/stddev, and flag phases whose
// performance moves more than the threshold for any reference input.
// Simulation points falling in input-*insensitive* phases can be skipped
// when exploring additional inputs (Figures 12/13).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/phase.h"
#include "core/profile.h"
#include "core/sampling.h"

namespace simprof::core {

/// Classify every unit of `reference` into the trained model's phases
/// (nearest center in the model's feature space, features matched by
/// method name). Vectorization and the nearest-center pass run in row
/// blocks on the thread pool (threads = 0 → global default).
std::vector<std::size_t> classify_units(const PhaseModel& trained,
                                        const ThreadProfile& reference,
                                        std::size_t threads = 0);

struct PhaseSensitivity {
  double train_mean = 0.0;
  double train_stddev = 0.0;
  double ref_mean = 0.0;
  double ref_stddev = 0.0;
  double mean_delta = 0.0;    ///< |μ_t − μ_r| / μ_t
  double stddev_delta = 0.0;  ///< |σ_t − σ_r| / σ_t
  bool sensitive = false;     ///< Eq. 6 with the configured threshold
  std::size_t ref_count = 0;  ///< reference units classified into the phase
};

/// Eq. 6 for every phase against a single reference input.
std::vector<PhaseSensitivity> phase_sensitivity_test(
    const PhaseModel& trained, const ThreadProfile& reference,
    double threshold = 0.10);

struct SensitivityReport {
  std::vector<bool> phase_sensitive;  ///< accumulated across references
  std::vector<std::vector<PhaseSensitivity>> per_reference;
  std::vector<std::string> reference_names;

  std::size_t num_sensitive() const;
  std::size_t num_insensitive() const { return phase_sensitive.size() - num_sensitive(); }

  /// Fraction of a plan's simulation points that fall in sensitive phases —
  /// the per-reference sample size of Figure 12; (1 − this) is the saving.
  double sensitive_point_fraction(const SamplePlan& plan) const;
};

/// Throws ContractViolation unless `threshold` is finite and non-negative:
/// every Eq. 6 comparison against a NaN is false, so a NaN would silently
/// report "0 sensitive", and a negative threshold flags every phase.
void check_sensitivity_threshold(double threshold);

/// Algorithm 1 over a set of reference profiles.
SensitivityReport input_sensitivity_test(
    const PhaseModel& trained,
    const std::vector<const ThreadProfile*>& references,
    const std::vector<std::string>& reference_names, double threshold = 0.10);

}  // namespace simprof::core
