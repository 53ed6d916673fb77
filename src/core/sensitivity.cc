#include "core/sensitivity.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "stats/matrix.h"
#include "support/assert.h"

namespace simprof::core {

namespace {
/// Sample standard deviations from fewer units than this are too noisy to
/// drive the Eq. 6 deviation comparison.
constexpr std::size_t kMinUnitsForStddevTest = 40;
}  // namespace

std::vector<std::size_t> classify_units(const PhaseModel& trained,
                                        const ThreadProfile& reference,
                                        std::size_t threads) {
  SIMPROF_EXPECTS(trained.k > 0, "untrained model");
  // Batch vectorization into the model's feature space (phase.h), then bulk
  // blocked nearest-center classification on the PR 1 DistanceTable kernel
  // (matrix.h) — both row-blocked on the thread pool.
  const stats::Matrix vectors = vectorize_units(trained, reference, threads);
  return stats::nearest_centers(trained.centers, vectors, threads);
}

std::vector<PhaseSensitivity> phase_sensitivity_test(
    const PhaseModel& trained, const ThreadProfile& reference,
    double threshold) {
  const auto labels = classify_units(trained, reference);
  const auto ref_stats = phase_stats_for(reference, labels, trained.k);

  // Stddevs below numerical dust (relative to the mean) are treated as zero
  // so that bit-identical CPIs never register as variance.
  auto denoise = [](double stddev, double mean) {
    return stddev < 1e-9 * std::max(mean, 1.0) ? 0.0 : stddev;
  };

  std::vector<PhaseSensitivity> out(trained.k);
  for (std::size_t h = 0; h < trained.k; ++h) {
    PhaseSensitivity& s = out[h];
    s.train_mean = trained.phases[h].mean_cpi;
    s.train_stddev =
        denoise(trained.phases[h].trimmed_stddev_cpi, s.train_mean);
    s.ref_mean = ref_stats[h].mean_cpi;
    s.ref_stddev = denoise(ref_stats[h].trimmed_stddev_cpi, s.ref_mean);
    s.ref_count = ref_stats[h].count;
    if (s.ref_count == 0 || trained.phases[h].count == 0) {
      // The phase does not occur under this input: its performance cannot be
      // compared — treated as not passing the test for this reference.
      continue;
    }
    s.mean_delta = s.train_mean > 0.0
                       ? std::abs(s.train_mean - s.ref_mean) / s.train_mean
                       : 0.0;
    s.stddev_delta =
        s.train_stddev > 0.0
            ? std::abs(s.train_stddev - s.ref_stddev) / s.train_stddev
            : (s.ref_stddev > 0.0 ? 1.0 : 0.0);
    // The deviation comparison needs enough reference units for σ to be
    // estimable at all; below that only the mean test is meaningful.
    const bool sigma_testable = s.ref_count >= kMinUnitsForStddevTest;
    s.sensitive = s.mean_delta > threshold ||
                  (sigma_testable && s.stddev_delta > threshold);
  }
  return out;
}

std::size_t SensitivityReport::num_sensitive() const {
  std::size_t n = 0;
  for (bool b : phase_sensitive) n += b ? 1 : 0;
  return n;
}

double SensitivityReport::sensitive_point_fraction(
    const SamplePlan& plan) const {
  if (plan.points.empty()) return 0.0;
  std::size_t in_sensitive = 0;
  for (const auto& pt : plan.points) {
    SIMPROF_EXPECTS(pt.phase < phase_sensitive.size(),
                    "plan phase outside report");
    in_sensitive += phase_sensitive[pt.phase] ? 1 : 0;
  }
  return static_cast<double>(in_sensitive) /
         static_cast<double>(plan.points.size());
}

void check_sensitivity_threshold(double threshold) {
  SIMPROF_EXPECTS(std::isfinite(threshold) && threshold >= 0.0,
                  "sensitivity threshold must be finite and non-negative");
}

SensitivityReport input_sensitivity_test(
    const PhaseModel& trained,
    const std::vector<const ThreadProfile*>& references,
    const std::vector<std::string>& reference_names, double threshold) {
  SIMPROF_EXPECTS(references.size() == reference_names.size(),
                  "reference name/profile count mismatch");
  check_sensitivity_threshold(threshold);
  obs::ObsSpan span("sensitivity.input_test",
                    {{"k", trained.k}, {"references", references.size()}});
  static obs::Counter& tests = obs::metrics().counter("sensitivity.tests");
  static obs::Counter& sensitive_phases =
      obs::metrics().counter("sensitivity.sensitive_phases");
  tests.increment();
  SensitivityReport report;
  report.phase_sensitive.assign(trained.k, false);
  report.reference_names = reference_names;
  for (std::size_t r = 0; r < references.size(); ++r) {
    const ThreadProfile* ref = references[r];
    SIMPROF_EXPECTS(ref != nullptr, "null reference profile");
    auto per_phase = phase_sensitivity_test(trained, *ref, threshold);
    std::size_t hits = 0;
    for (std::size_t h = 0; h < trained.k; ++h) {
      if (per_phase[h].sensitive) {
        report.phase_sensitive[h] = true;
        ++hits;
      }
    }
    SIMPROF_LOG(kInfo) << "sensitivity: reference " << reference_names[r]
                       << " flags " << hits << "/" << trained.k
                       << " phases (threshold=" << threshold << ")";
    report.per_reference.push_back(std::move(per_phase));
  }
  sensitive_phases.add(report.num_sensitive());
  return report;
}

}  // namespace simprof::core
