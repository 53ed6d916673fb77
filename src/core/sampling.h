// Phase sampling (Section III-C) and the comparison baselines (Section
// IV-B): stratified random sampling with Neyman optimal allocation
// (SimProf), simple random sampling (SRS), a single N-second contiguous
// interval (SECOND), and the SimPoint-like one-point-per-phase pick (CODE).
//
// A SamplePlan carries the chosen simulation points, the estimator they
// induce, and — for the probabilistic techniques — the stratified standard
// error / confidence interval of Eqs. 2–5.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/phase.h"
#include "core/profile.h"
#include "stats/stratified.h"

namespace simprof::core {

/// One selected sampling unit. `weight` is the estimator weight the unit
/// carries (they sum to 1 within a plan).
struct SimulationPoint {
  std::size_t unit_index = 0;
  std::size_t phase = 0;  ///< 0 for unstratified techniques
  double weight = 0.0;
};

enum class SamplingTechnique {
  kSimProf,
  kSrs,
  kSecond,
  kCode,
  kSystematic,
  kSimProfSystematic,
  kSmarts,
};

std::string_view to_string(SamplingTechnique t);

struct SamplePlan {
  SamplingTechnique technique = SamplingTechnique::kSimProf;
  std::vector<SimulationPoint> points;
  std::vector<std::size_t> allocation;  ///< per-phase n_h (stratified only)
  double estimated_cpi = 0.0;
  double standard_error = 0.0;          ///< 0 for SECOND/CODE (not probabilistic)
  stats::ConfidenceInterval ci{};       ///< at the z passed in

  std::size_t sample_size() const { return points.size(); }
};

/// Relative error of a plan's estimate against the profile's oracle CPI.
double relative_error(const SamplePlan& plan, const ThreadProfile& profile);

/// Strata description (N_h, σ_h, μ_h) from a phase model.
std::vector<stats::Stratum> strata_of(const PhaseModel& model);

/// SimProf: stratified random sampling, optimal allocation of `n` points.
SamplePlan simprof_sample(const ThreadProfile& profile,
                          const PhaseModel& model, std::size_t n,
                          std::uint64_t seed, double z = stats::kZ997);

/// SRS baseline: uniform sample of `n` units without replacement.
SamplePlan srs_sample(const ThreadProfile& profile, std::size_t n,
                      std::uint64_t seed, double z = stats::kZ997);

/// SECOND baseline: one contiguous interval covering `seconds` of virtual
/// time at `clock_ghz`, starting after `warmup_fraction` of the run.
SamplePlan second_sample(const ThreadProfile& profile, double seconds,
                         double clock_ghz, double warmup_fraction = 0.1);

/// CODE baseline: the unit nearest each phase center, weighted by phase.
SamplePlan code_sample(const ThreadProfile& profile, const PhaseModel& model);

/// SMARTS-style systematic sampling (Wunderlich et al., ISCA'03): every
/// k-th unit starting from a random offset, k = ⌈N/n⌉. The paper names
/// combining SimProf with systematic sampling as future work; this is the
/// pure-systematic comparator (implemented as an extension).
SamplePlan systematic_sample(const ThreadProfile& profile, std::size_t n,
                             std::uint64_t seed, double z = stats::kZ997);

/// SimProf ∘ systematic: stratified allocation chooses how many points each
/// phase gets (Eq. 1), but points *within* a phase are taken systematically
/// over the phase's unit sequence instead of uniformly at random — the
/// paper's proposed combination (Section III-C, last paragraph).
SamplePlan simprof_systematic_sample(const ThreadProfile& profile,
                                     const PhaseModel& model, std::size_t n,
                                     std::uint64_t seed,
                                     double z = stats::kZ997);

/// SMARTS baseline (Wunderlich et al., ISCA'03): systematic unit selection
/// — every k-th unit from a random offset — whose selected units are meant
/// to be *measured through checkpoint restore + functional fast-forward*
/// rather than by re-simulating the whole run (WorkloadLab::measure_units
/// composes that half; this function only plans the selection and its
/// estimator). Selection math matches systematic_sample; the techniques
/// differ in measurement cost, not statistics.
SamplePlan smarts_sample(const ThreadProfile& profile, std::size_t n,
                         std::uint64_t seed, double z = stats::kZ997);

/// Smallest stratified sample size achieving z·SE ≤ rel_margin·μ (Figure 8).
std::size_t required_sample_size(const PhaseModel& model, double rel_margin,
                                 double z = stats::kZ997);

}  // namespace simprof::core
