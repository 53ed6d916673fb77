#include "core/sampling.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/obs.h"
#include "stats/descriptive.h"
#include "support/assert.h"
#include "support/rng.h"

namespace simprof::core {

std::string_view to_string(SamplingTechnique t) {
  switch (t) {
    case SamplingTechnique::kSimProf: return "SimProf";
    case SamplingTechnique::kSrs: return "SRS";
    case SamplingTechnique::kSecond: return "SECOND";
    case SamplingTechnique::kCode: return "CODE";
    case SamplingTechnique::kSystematic: return "SYSTEMATIC";
    case SamplingTechnique::kSimProfSystematic: return "SimProf+SYS";
    case SamplingTechnique::kSmarts: return "SMARTS";
  }
  return "unknown";
}

double relative_error(const SamplePlan& plan, const ThreadProfile& profile) {
  const double oracle = profile.oracle_cpi();
  if (oracle <= 0.0) return 0.0;
  return std::abs(plan.estimated_cpi - oracle) / oracle;
}

std::vector<stats::Stratum> strata_of(const PhaseModel& model) {
  std::vector<stats::Stratum> strata;
  strata.reserve(model.phases.size());
  for (const auto& p : model.phases) {
    strata.push_back(stats::Stratum{p.count, p.stddev_cpi, p.mean_cpi});
  }
  return strata;
}

SamplePlan simprof_sample(const ThreadProfile& profile,
                          const PhaseModel& model, std::size_t n,
                          std::uint64_t seed, double z) {
  SIMPROF_EXPECTS(n > 0, "sample size must be positive");
  SIMPROF_EXPECTS(model.labels.size() == profile.num_units(),
                  "model fitted on a different profile");

  obs::ObsSpan span("sample.simprof",
                    {{"n", n}, {"k", model.k}, {"units", profile.num_units()}});
  static obs::Counter& plans = obs::metrics().counter("sample.simprof_plans");
  plans.increment();

  SamplePlan plan;
  plan.technique = SamplingTechnique::kSimProf;
  const auto strata = strata_of(model);
  plan.allocation = stats::optimal_allocation(strata, n);
  if (obs::log_enabled(obs::LogLevel::kDebug)) {
    std::ostringstream alloc;
    for (std::size_t h = 0; h < plan.allocation.size(); ++h) {
      if (h > 0) alloc << ' ';
      alloc << plan.allocation[h];
    }
    SIMPROF_LOG(kDebug) << "sample: Neyman allocation n=" << n
                        << " k=" << model.k << " -> [" << alloc.str() << "]";
  }

  // Group unit indices by phase, then draw n_h uniformly without
  // replacement from each phase.
  std::vector<std::vector<std::size_t>> members(model.k);
  for (std::size_t u = 0; u < model.labels.size(); ++u) {
    members[model.labels[u]].push_back(u);
  }
  Rng rng(seed);
  const double total_units = static_cast<double>(profile.num_units());
  for (std::size_t h = 0; h < model.k; ++h) {
    const std::size_t nh = plan.allocation[h];
    if (nh == 0) continue;
    SIMPROF_ASSERT(nh <= members[h].size(), "allocation exceeds phase size");
    shuffle(members[h], rng);
    const double w_h = static_cast<double>(members[h].size()) / total_units;
    for (std::size_t i = 0; i < nh; ++i) {
      plan.points.push_back(SimulationPoint{
          members[h][i], h, w_h / static_cast<double>(nh)});
    }
  }

  // Stratified estimator: Σ_h W_h · mean(sampled CPIs of phase h). Phases
  // with zero allocation only arise when σ_h = 0 nowhere — Neyman gives
  // every non-empty phase ≥ 1 point via the allocation floor.
  double est = 0.0;
  for (const auto& pt : plan.points) {
    est += pt.weight * profile.units[pt.unit_index].cpi();
  }
  plan.estimated_cpi = est;
  plan.standard_error = stats::stratified_standard_error(strata,
                                                         plan.allocation);
  plan.ci = stats::confidence_interval(est, plan.standard_error, z);
  return plan;
}

SamplePlan srs_sample(const ThreadProfile& profile, std::size_t n,
                      std::uint64_t seed, double z) {
  SIMPROF_EXPECTS(n > 0, "sample size must be positive");
  SIMPROF_EXPECTS(profile.num_units() > 0, "empty profile");
  const std::size_t take = std::min(n, profile.num_units());

  std::vector<std::size_t> idx(profile.num_units());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Rng rng(seed);
  shuffle(idx, rng);

  SamplePlan plan;
  plan.technique = SamplingTechnique::kSrs;
  double est = 0.0;
  std::vector<double> sampled;
  sampled.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    plan.points.push_back(
        SimulationPoint{idx[i], 0, 1.0 / static_cast<double>(take)});
    sampled.push_back(profile.units[idx[i]].cpi());
    est += sampled.back() / static_cast<double>(take);
  }
  plan.estimated_cpi = est;
  // SRS standard error with finite-population correction.
  const double big_n = static_cast<double>(profile.num_units());
  const double s = stats::sample_stddev(sampled);
  const double fpc = 1.0 - static_cast<double>(take) / big_n;
  plan.standard_error =
      s / std::sqrt(static_cast<double>(take)) * std::sqrt(std::max(fpc, 0.0));
  plan.ci = stats::confidence_interval(est, plan.standard_error, z);
  return plan;
}

SamplePlan second_sample(const ThreadProfile& profile, double seconds,
                         double clock_ghz, double warmup_fraction) {
  SIMPROF_EXPECTS(profile.num_units() > 0, "empty profile");
  SIMPROF_EXPECTS(seconds > 0.0 && clock_ghz > 0.0, "invalid interval");

  const auto target_cycles =
      static_cast<std::uint64_t>(seconds * clock_ghz * 1e9);
  const auto start = static_cast<std::size_t>(
      warmup_fraction * static_cast<double>(profile.num_units()));

  SamplePlan plan;
  plan.technique = SamplingTechnique::kSecond;
  std::uint64_t cycles = 0;
  std::size_t end = start;
  while (end < profile.num_units() && cycles < target_cycles) {
    cycles += profile.units[end].counters.cycles;
    ++end;
  }
  SIMPROF_ASSERT(end > start, "SECOND interval selected no units");
  const double w = 1.0 / static_cast<double>(end - start);
  double est = 0.0;
  for (std::size_t u = start; u < end; ++u) {
    plan.points.push_back(SimulationPoint{u, 0, w});
    est += w * profile.units[u].cpi();
  }
  plan.estimated_cpi = est;
  return plan;  // deterministic window: no meaningful SE/CI
}

SamplePlan code_sample(const ThreadProfile& profile, const PhaseModel& model) {
  SamplePlan plan;
  plan.technique = SamplingTechnique::kCode;
  double est = 0.0;
  for (std::size_t h = 0; h < model.k; ++h) {
    if (model.phases[h].count == 0) continue;
    const std::size_t u = model.representative_units[h];
    plan.points.push_back(SimulationPoint{u, h, model.phases[h].weight});
    est += model.phases[h].weight * profile.units[u].cpi();
  }
  plan.estimated_cpi = est;
  return plan;
}

std::size_t required_sample_size(const PhaseModel& model, double rel_margin,
                                 double z) {
  return stats::required_sample_size(strata_of(model), rel_margin, z);
}

namespace {

/// Every k-th element of `units` from a random start, exactly `take` picks.
std::vector<std::size_t> systematic_picks(std::span<const std::size_t> units,
                                          std::size_t take, Rng& rng) {
  std::vector<std::size_t> picks;
  if (units.empty() || take == 0) return picks;
  take = std::min(take, units.size());
  const double stride =
      static_cast<double>(units.size()) / static_cast<double>(take);
  const double start = rng.next_double() * stride;
  picks.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    auto idx = static_cast<std::size_t>(start + static_cast<double>(i) * stride);
    if (idx >= units.size()) idx = units.size() - 1;
    picks.push_back(units[idx]);
  }
  return picks;
}

}  // namespace

SamplePlan systematic_sample(const ThreadProfile& profile, std::size_t n,
                             std::uint64_t seed, double z) {
  SIMPROF_EXPECTS(n > 0, "sample size must be positive");
  SIMPROF_EXPECTS(profile.num_units() > 0, "empty profile");
  std::vector<std::size_t> all(profile.num_units());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng rng(seed);
  const auto picks = systematic_picks(all, n, rng);

  SamplePlan plan;
  plan.technique = SamplingTechnique::kSystematic;
  std::vector<double> sampled;
  sampled.reserve(picks.size());
  double est = 0.0;
  for (std::size_t u : picks) {
    plan.points.push_back(
        SimulationPoint{u, 0, 1.0 / static_cast<double>(picks.size())});
    sampled.push_back(profile.units[u].cpi());
    est += sampled.back() / static_cast<double>(picks.size());
  }
  plan.estimated_cpi = est;
  // SRS-style SE as the standard approximation for systematic designs.
  const double big_n = static_cast<double>(profile.num_units());
  const double s = stats::sample_stddev(sampled);
  const double fpc = 1.0 - static_cast<double>(picks.size()) / big_n;
  plan.standard_error = s / std::sqrt(static_cast<double>(picks.size())) *
                        std::sqrt(std::max(fpc, 0.0));
  plan.ci = stats::confidence_interval(est, plan.standard_error, z);
  return plan;
}

SamplePlan smarts_sample(const ThreadProfile& profile, std::size_t n,
                         std::uint64_t seed, double z) {
  // Same systematic selection and estimator as systematic_sample; the
  // technique tag tells downstream consumers (benches, the CLI) to measure
  // the selected units through the checkpoint fast path.
  SamplePlan plan = systematic_sample(profile, n, seed, z);
  plan.technique = SamplingTechnique::kSmarts;
  return plan;
}

SamplePlan simprof_systematic_sample(const ThreadProfile& profile,
                                     const PhaseModel& model, std::size_t n,
                                     std::uint64_t seed, double z) {
  SIMPROF_EXPECTS(n > 0, "sample size must be positive");
  SIMPROF_EXPECTS(model.labels.size() == profile.num_units(),
                  "model fitted on a different profile");

  SamplePlan plan;
  plan.technique = SamplingTechnique::kSimProfSystematic;
  const auto strata = strata_of(model);
  plan.allocation = stats::optimal_allocation(strata, n);

  std::vector<std::vector<std::size_t>> members(model.k);
  for (std::size_t u = 0; u < model.labels.size(); ++u) {
    members[model.labels[u]].push_back(u);  // already in execution order
  }
  Rng rng(seed);
  const double total_units = static_cast<double>(profile.num_units());
  double est = 0.0;
  for (std::size_t h = 0; h < model.k; ++h) {
    const auto picks = systematic_picks(members[h], plan.allocation[h], rng);
    if (picks.empty()) continue;
    const double w_h = static_cast<double>(members[h].size()) / total_units;
    for (std::size_t u : picks) {
      const double w = w_h / static_cast<double>(picks.size());
      plan.points.push_back(SimulationPoint{u, h, w});
      est += w * profile.units[u].cpi();
    }
  }
  plan.estimated_cpi = est;
  plan.standard_error =
      stats::stratified_standard_error(strata, plan.allocation);
  plan.ci = stats::confidence_interval(est, plan.standard_error, z);
  return plan;
}

}  // namespace simprof::core
