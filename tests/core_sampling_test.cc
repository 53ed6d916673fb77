// Unit + property tests for phase sampling and the four techniques of
// Section IV-B: SimProf (stratified), SRS, SECOND and CODE.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/sampling.h"
#include "support/assert.h"
#include "test_util.h"

namespace simprof::core {
namespace {

PhaseModel model_of(const ThreadProfile& p) { return form_phases(p); }

TEST(SimProfSample, AllocationFollowsNeyman) {
  // Phase A: high variance; phase B: zero variance → nearly all points to A.
  auto p = testing::synthetic_profile(
      {{100, 1.0, 0.4, 1}, {100, 3.0, 0.001, 2}});
  const auto model = model_of(p);
  ASSERT_EQ(model.k, 2u);
  const auto plan = simprof_sample(p, model, 20, 1);
  EXPECT_EQ(plan.sample_size(), 20u);
  const std::size_t high_var_phase =
      model.phases[0].stddev_cpi > model.phases[1].stddev_cpi ? 0 : 1;
  EXPECT_GE(plan.allocation[high_var_phase], 17u);
  EXPECT_GE(plan.allocation[1 - high_var_phase], 1u);  // floor of one
}

TEST(SimProfSample, PointsBelongToTheirPhaseAndAreUnique) {
  auto p = testing::synthetic_profile({{50, 0.5, 0.1, 1}, {50, 2.0, 0.2, 2}});
  const auto model = model_of(p);
  const auto plan = simprof_sample(p, model, 16, 2);
  std::set<std::size_t> seen;
  for (const auto& pt : plan.points) {
    EXPECT_EQ(model.labels[pt.unit_index], pt.phase);
    EXPECT_TRUE(seen.insert(pt.unit_index).second) << "duplicate unit";
  }
}

TEST(SimProfSample, WeightsSumToOne) {
  auto p = testing::synthetic_profile({{60, 1.0, 0.3, 1}, {40, 2.0, 0.2, 2}});
  const auto model = model_of(p);
  const auto plan = simprof_sample(p, model, 12, 3);
  double sum = 0.0;
  for (const auto& pt : plan.points) sum += pt.weight;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(SimProfSample, FullCensusIsExact) {
  auto p = testing::synthetic_profile({{30, 0.8, 0.2, 1}, {30, 1.9, 0.3, 2}});
  const auto model = model_of(p);
  const auto plan = simprof_sample(p, model, 60, 4);
  EXPECT_NEAR(plan.estimated_cpi, p.oracle_cpi(), 1e-9);
  EXPECT_NEAR(plan.standard_error, 0.0, 1e-12);
}

TEST(SimProfSample, HomogeneousPhasesGiveExactEstimate) {
  auto p = testing::synthetic_profile({{50, 0.5, 0.0, 1}, {50, 2.0, 0.0, 2}});
  const auto model = model_of(p);
  const auto plan = simprof_sample(p, model, 4, 5);
  EXPECT_NEAR(plan.estimated_cpi, p.oracle_cpi(), 1e-9);
  EXPECT_NEAR(relative_error(plan, p), 0.0, 1e-9);
}

TEST(SimProfSample, CiCoversOracleAtReasonableRate) {
  // 99.7% CI should cover the oracle in the vast majority of draws.
  auto p = testing::synthetic_profile(
      {{150, 0.8, 0.25, 1}, {100, 2.2, 0.45, 2}}, 11);
  const auto model = model_of(p);
  const double oracle = p.oracle_cpi();
  int covered = 0;
  constexpr int kDraws = 40;
  for (int seed = 0; seed < kDraws; ++seed) {
    const auto plan = simprof_sample(p, model, 25, seed);
    if (oracle >= plan.ci.low() && oracle <= plan.ci.high()) ++covered;
  }
  EXPECT_GE(covered, kDraws - 2);
}

TEST(SimProfSample, RejectsForeignModel) {
  auto p = testing::synthetic_profile({{10, 1.0, 0.1, 1}});
  auto q = testing::synthetic_profile({{20, 1.0, 0.1, 1}});
  const auto model = model_of(p);
  EXPECT_THROW(simprof_sample(q, model, 5, 1), ContractViolation);
}

TEST(SrsSample, UniformWeightsAndClampedSize) {
  auto p = testing::synthetic_profile({{10, 1.0, 0.2, 1}});
  const auto plan = srs_sample(p, 50, 7);
  EXPECT_EQ(plan.sample_size(), 10u);  // clamped to population
  for (const auto& pt : plan.points) EXPECT_NEAR(pt.weight, 0.1, 1e-12);
  EXPECT_NEAR(plan.estimated_cpi, p.oracle_cpi(), 1e-9);  // census
}

TEST(SrsSample, DeterministicPerSeed) {
  auto p = testing::synthetic_profile({{200, 1.0, 0.3, 1}}, 13);
  const auto a = srs_sample(p, 20, 99);
  const auto b = srs_sample(p, 20, 99);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].unit_index, b.points[i].unit_index);
  }
  const auto c = srs_sample(p, 20, 100);
  bool different = false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    different |= a.points[i].unit_index != c.points[i].unit_index;
  }
  EXPECT_TRUE(different);
}

TEST(SecondSample, WindowIsContiguousAndCycleBounded) {
  auto p = testing::synthetic_profile({{300, 1.0, 0.0, 1}}, 17, 1'000'000);
  // Each unit: 1M cycles. 0.01 virtual seconds at 2 GHz = 20M cycles → 20
  // units starting after 10% warmup (unit 30).
  const auto plan = second_sample(p, 0.01, 2.0);
  ASSERT_EQ(plan.sample_size(), 20u);
  EXPECT_EQ(plan.points.front().unit_index, 30u);
  for (std::size_t i = 1; i < plan.points.size(); ++i) {
    EXPECT_EQ(plan.points[i].unit_index,
              plan.points[i - 1].unit_index + 1);
  }
}

TEST(SecondSample, MissesLateStagesByConstruction) {
  // Two temporally separated stages: SECOND's window sits in the first one
  // and badly misestimates — the paper's core criticism of SECOND.
  ThreadProfile p;
  p.method_names = {"m0", "m1"};
  p.method_kinds = {jvm::OpKind::kFramework, jvm::OpKind::kMap};
  for (int i = 0; i < 200; ++i) {
    UnitRecord u;
    u.unit_id = static_cast<std::uint64_t>(i);
    const double cpi = i < 150 ? 0.5 : 3.0;  // late reduce stage is slow
    u.counters.instructions = 1'000'000;
    u.counters.cycles = static_cast<std::uint64_t>(cpi * 1e6);
    u.methods = {0};
    u.counts = {10};
    p.units.push_back(std::move(u));
  }
  const auto plan = second_sample(p, 0.01, 2.0);  // ~30 units from unit 20
  EXPECT_LT(plan.points.back().unit_index, 150u);
  EXPECT_GT(relative_error(plan, p), 0.3);
}

TEST(CodeSample, OnePointPerNonEmptyPhaseWeightedByPhase) {
  auto p = testing::synthetic_profile({{80, 0.5, 0.0, 1}, {20, 2.0, 0.0, 2}});
  const auto model = model_of(p);
  const auto plan = code_sample(p, model);
  ASSERT_EQ(plan.sample_size(), model.k);
  double wsum = 0.0;
  for (const auto& pt : plan.points) wsum += pt.weight;
  EXPECT_NEAR(wsum, 1.0, 1e-12);
  // Homogeneous phases: CODE is exact.
  EXPECT_NEAR(plan.estimated_cpi, p.oracle_cpi(), 1e-9);
}

TEST(CodeSample, SuffersOnHeterogeneousPhases) {
  // One phase with huge CPI spread but a single code signature: CODE's
  // single representative cannot capture the mean reliably; SimProf with a
  // healthy allocation gets closer on average (Section V's key claim).
  auto p = testing::synthetic_profile({{400, 1.5, 0.9, 1}}, 23);
  const auto model = model_of(p);
  const auto code = code_sample(p, model);
  double simprof_total = 0.0;
  constexpr int kDraws = 15;
  for (int s = 0; s < kDraws; ++s) {
    simprof_total += relative_error(simprof_sample(p, model, 40, s), p);
  }
  EXPECT_LT(simprof_total / kDraws, relative_error(code, p) + 0.05);
}

TEST(RequiredSampleSize, MatchesStratifiedMathOnModel) {
  auto p = testing::synthetic_profile(
      {{200, 1.0, 0.3, 1}, {100, 2.0, 0.1, 2}}, 29);
  const auto model = model_of(p);
  const auto n5 = required_sample_size(model, 0.05);
  const auto n2 = required_sample_size(model, 0.02);
  EXPECT_GE(n2, n5);
  EXPECT_LE(n2, p.num_units());
  // The returned size, allocated and sampled, should meet the margin.
  const auto plan = simprof_sample(p, model, n5, 31);
  EXPECT_LE(stats::kZ997 * plan.standard_error,
            0.05 * p.oracle_cpi() * 1.15);
}

TEST(TechniqueNames, Stable) {
  EXPECT_EQ(to_string(SamplingTechnique::kSimProf), "SimProf");
  EXPECT_EQ(to_string(SamplingTechnique::kSrs), "SRS");
  EXPECT_EQ(to_string(SamplingTechnique::kSecond), "SECOND");
  EXPECT_EQ(to_string(SamplingTechnique::kCode), "CODE");
  EXPECT_EQ(to_string(SamplingTechnique::kSystematic), "SYSTEMATIC");
  EXPECT_EQ(to_string(SamplingTechnique::kSimProfSystematic), "SimProf+SYS");
}

TEST(SystematicSample, EvenStrideUniqueUnits) {
  auto p = testing::synthetic_profile({{120, 1.0, 0.2, 1}}, 37);
  const auto plan = systematic_sample(p, 12, 5);
  ASSERT_EQ(plan.sample_size(), 12u);
  // Picks are strictly increasing with stride ≈ 10.
  for (std::size_t i = 1; i < plan.points.size(); ++i) {
    const auto gap = plan.points[i].unit_index - plan.points[i - 1].unit_index;
    EXPECT_GE(gap, 9u);
    EXPECT_LE(gap, 11u);
  }
  double wsum = 0.0;
  for (const auto& pt : plan.points) wsum += pt.weight;
  EXPECT_NEAR(wsum, 1.0, 1e-12);
}

TEST(SystematicSample, CensusWhenSampleCoversPopulation) {
  auto p = testing::synthetic_profile({{15, 1.3, 0.1, 1}}, 41);
  const auto plan = systematic_sample(p, 50, 1);
  EXPECT_EQ(plan.sample_size(), 15u);
  EXPECT_NEAR(plan.estimated_cpi, p.oracle_cpi(), 1e-9);
}

TEST(SystematicSample, AliasesWithPeriodicStructure) {
  // The classic hazard of systematic designs: a profile strictly
  // alternating fast/slow units sampled with an even stride picks a single
  // parity — a wildly wrong estimate. (This is why SimProf stratifies
  // first: within a phase the sequence no longer carries the period.)
  auto p = testing::synthetic_profile({{100, 0.5, 0.0, 1}, {100, 2.0, 0.0, 2}},
                                      43);
  const auto plan = systematic_sample(p, 20, 9);  // stride 10, even
  EXPECT_GT(relative_error(plan, p), 0.3);
  // Stratified+systematic is immune: each phase is internally uniform here.
  const auto model = model_of(p);
  if (model.k == 2) {
    const auto strat = simprof_systematic_sample(p, model, 20, 9);
    EXPECT_LT(relative_error(strat, p), 0.02);
  }
}

TEST(SimProfSystematic, AllocationMatchesNeymanAndEstimatesWell) {
  auto p = testing::synthetic_profile(
      {{120, 1.0, 0.4, 1}, {120, 3.0, 0.01, 2}}, 47);
  const auto model = model_of(p);
  if (model.k < 2) GTEST_SKIP() << "clustering collapsed";
  const auto plan = simprof_systematic_sample(p, model, 24, 3);
  EXPECT_EQ(plan.sample_size(), 24u);
  // High-variance phase receives the bulk of the allocation.
  const std::size_t hv =
      model.phases[0].stddev_cpi > model.phases[1].stddev_cpi ? 0 : 1;
  EXPECT_GT(plan.allocation[hv], plan.allocation[1 - hv]);
  // Points belong to their phases; estimate is sane.
  for (const auto& pt : plan.points) {
    EXPECT_EQ(model.labels[pt.unit_index], pt.phase);
  }
  EXPECT_LT(relative_error(plan, p), 0.12);
}

TEST(SimProfSystematic, WithinPhasePicksAreSpread) {
  auto p = testing::synthetic_profile({{200, 1.0, 0.3, 1}}, 53);
  const auto model = model_of(p);
  const auto plan = simprof_systematic_sample(p, model, 10, 7);
  // Single phase: the 10 picks should span the run, not cluster.
  std::size_t lo = p.num_units(), hi = 0;
  for (const auto& pt : plan.points) {
    lo = std::min(lo, pt.unit_index);
    hi = std::max(hi, pt.unit_index);
  }
  EXPECT_LT(lo, p.num_units() / 5);
  EXPECT_GT(hi, p.num_units() * 4 / 5);
}

// Property: across random profiles of two program phases, the stratified
// estimator is (a) unbiased in expectation and (b) lower-variance than SRS
// at equal n.
class StratifiedVsSrs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StratifiedVsSrs, LowerErrorThanSrsAtEqualSampleSize) {
  Rng rng(GetParam());
  auto p = testing::synthetic_profile(
      {{120 + rng.next_below(100), 0.5 + rng.next_double(), 0.05, 1},
       {120 + rng.next_below(100), 1.5 + rng.next_double(), 0.3, 2}},
      GetParam());
  const auto model = model_of(p);
  if (model.k < 2) GTEST_SKIP() << "clustering collapsed";
  double strat_err = 0.0, srs_err = 0.0;
  constexpr int kDraws = 12;
  for (int s = 0; s < kDraws; ++s) {
    strat_err += relative_error(simprof_sample(p, model, 15, s), p);
    srs_err += relative_error(srs_sample(p, 15, s), p);
  }
  EXPECT_LE(strat_err, srs_err + 0.03 * kDraws);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StratifiedVsSrs,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

}  // namespace
}  // namespace simprof::core
