// Unit + property tests for the stratified-sampling mathematics: Neyman
// optimal allocation (Eq. 1), the stratified standard error (Eq. 4),
// confidence intervals (Eqs. 2–3) and the required-sample-size solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "stats/stratified.h"
#include "support/assert.h"
#include "support/rng.h"

namespace simprof::stats {
namespace {

std::size_t total(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

TEST(OptimalAllocation, ProportionalToNhSigmaH) {
  // N_h σ_h products: 100·1, 100·3 → 1:3 split of 40 ⇒ 10 and 30.
  std::vector<Stratum> strata{{100, 1.0, 1.0}, {100, 3.0, 1.0}};
  const auto a = optimal_allocation(strata, 40);
  EXPECT_EQ(a[0], 10u);
  EXPECT_EQ(a[1], 30u);
}

TEST(OptimalAllocation, SumsToRequestedTotal) {
  std::vector<Stratum> strata{{50, 0.5, 1.0}, {200, 2.0, 1.0}, {10, 0.1, 1.0}};
  for (std::size_t n : {3UL, 10UL, 57UL, 123UL}) {
    const auto a = optimal_allocation(strata, n);
    EXPECT_EQ(total(a), std::min(n, std::size_t{260})) << "n=" << n;
  }
}

TEST(OptimalAllocation, NeverExceedsStratumPopulation) {
  std::vector<Stratum> strata{{5, 10.0, 1.0}, {100, 0.1, 1.0}};
  const auto a = optimal_allocation(strata, 50);
  EXPECT_LE(a[0], 5u);
  EXPECT_EQ(total(a), 50u);  // overflow was redistributed
}

TEST(OptimalAllocation, MinimumOnePerNonEmptyStratum) {
  std::vector<Stratum> strata{{1000, 5.0, 1.0}, {3, 0.0, 1.0}};
  const auto a = optimal_allocation(strata, 20);
  EXPECT_GE(a[1], 1u);  // zero-variance stratum still gets its floor
}

TEST(OptimalAllocation, AllZeroVarianceFallsBackToProportional) {
  std::vector<Stratum> strata{{300, 0.0, 1.0}, {100, 0.0, 1.0}};
  const auto a = optimal_allocation(strata, 40);
  EXPECT_EQ(a[0], 30u);
  EXPECT_EQ(a[1], 10u);
}

TEST(OptimalAllocation, EmptyStrataGetNothing) {
  std::vector<Stratum> strata{{0, 0.0, 0.0}, {10, 1.0, 1.0}};
  const auto a = optimal_allocation(strata, 5);
  EXPECT_EQ(a[0], 0u);
  EXPECT_EQ(a[1], 5u);
}

TEST(ProportionalAllocation, FollowsPopulations) {
  std::vector<Stratum> strata{{100, 9.0, 1.0}, {300, 0.0, 1.0}};
  const auto a = proportional_allocation(strata, 40);
  EXPECT_EQ(a[0], 10u);
  EXPECT_EQ(a[1], 30u);
}

TEST(StandardError, MatchesHandComputedTwoStrata) {
  // N = 100 (60/40), σ = 2 and 1, n_h = 6 and 4.
  std::vector<Stratum> strata{{60, 2.0, 1.0}, {40, 1.0, 1.0}};
  std::vector<std::size_t> n{6, 4};
  // SE = (1/N)·sqrt( Σ N_h²·(1−n_h/N_h)·s_h²/n_h )
  const double term0 = 60.0 * 60.0 * (1.0 - 6.0 / 60.0) * 4.0 / 6.0;
  const double term1 = 40.0 * 40.0 * (1.0 - 4.0 / 40.0) * 1.0 / 4.0;
  const double expected = std::sqrt(term0 + term1) / 100.0;
  EXPECT_NEAR(stratified_standard_error(strata, n), expected, 1e-12);
}

TEST(StandardError, FullCensusHasZeroError) {
  std::vector<Stratum> strata{{10, 3.0, 1.0}, {20, 1.0, 2.0}};
  std::vector<std::size_t> n{10, 20};
  EXPECT_NEAR(stratified_standard_error(strata, n), 0.0, 1e-12);
}

TEST(StandardError, MoreSamplesNeverWorse) {
  std::vector<Stratum> strata{{100, 2.0, 1.0}, {100, 1.0, 1.0}};
  double prev = 1e300;
  for (std::size_t n = 2; n <= 100; n += 7) {
    const auto alloc = optimal_allocation(strata, 2 * n);
    const double se = stratified_standard_error(strata, alloc);
    EXPECT_LE(se, prev + 1e-12);
    prev = se;
  }
}

TEST(PopulationMean, WeightedByStratumSize) {
  std::vector<Stratum> strata{{30, 0.0, 1.0}, {10, 0.0, 5.0}};
  EXPECT_DOUBLE_EQ(stratified_population_mean(strata), 2.0);
}

TEST(ConfidenceInterval, MarginIsZTimesSe) {
  const auto ci = confidence_interval(1.0, 0.02, kZ997);
  EXPECT_DOUBLE_EQ(ci.mean, 1.0);
  EXPECT_DOUBLE_EQ(ci.margin, 0.06);
  EXPECT_DOUBLE_EQ(ci.low(), 0.94);
  EXPECT_DOUBLE_EQ(ci.high(), 1.06);
}

TEST(RequiredSampleSize, TighterMarginNeedsMore) {
  std::vector<Stratum> strata{{500, 0.4, 1.0}, {500, 0.1, 0.8}};
  const auto n5 = required_sample_size(strata, 0.05, kZ997);
  const auto n2 = required_sample_size(strata, 0.02, kZ997);
  EXPECT_GT(n2, n5);
  EXPECT_LE(n2, 1000u);
}

TEST(RequiredSampleSize, ZeroVarianceNeedsOne) {
  std::vector<Stratum> strata{{100, 0.0, 1.0}};
  EXPECT_EQ(required_sample_size(strata, 0.05, kZ997), 1u);
}

TEST(RequiredSampleSize, AchievesTargetMargin) {
  // The computed n, optimally allocated, must actually satisfy z·SE ≤ r·μ.
  std::vector<Stratum> strata{{400, 0.5, 1.2}, {300, 0.2, 0.9},
                              {300, 0.05, 0.5}};
  const double mu = stratified_population_mean(strata);
  for (double r : {0.10, 0.05, 0.02}) {
    const auto n = required_sample_size(strata, r, kZ997);
    const auto alloc = optimal_allocation(strata, n);
    const double se = stratified_standard_error(strata, alloc);
    EXPECT_LE(kZ997 * se, r * mu * 1.12)
        << "margin " << r << " n=" << n;  // 12% slack for rounding/floors
  }
}

// --- Corrupt/degenerate-input regressions (see DESIGN.md §6d). The exact
// inputs below previously produced UB or NaN; keep them verbatim.

TEST(OptimalAllocation, TotalBeyondPopulationCapsAtPopulation) {
  std::vector<Stratum> strata{{5, 1.0, 1.0}, {7, 2.0, 1.0}};
  const auto a = optimal_allocation(strata, 1000);
  EXPECT_EQ(a[0], 5u);
  EXPECT_EQ(a[1], 7u);
}

TEST(OptimalAllocation, NonFiniteStddevTreatedAsZero) {
  // Regression: σ_h = NaN flowed into a static_cast<size_t>(NaN·total) —
  // undefined behavior — and σ_h = inf starved every other stratum.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Stratum> strata{{100, nan, 1.0}, {100, 1.0, 1.0},
                              {100, inf, 1.0}, {100, -2.0, 1.0}};
  const auto a = optimal_allocation(strata, 40);
  EXPECT_EQ(total(a), 40u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(a[i], 100u) << "stratum " << i;
    EXPECT_GE(a[i], 1u) << "stratum " << i;  // min_per_stratum floor
  }
  // All weight lands on the one finite-positive-σ stratum beyond the floors.
  EXPECT_EQ(a[1], 37u);
}

TEST(OptimalAllocation, ZeroTotalStillFloorsNonEmptyStrata) {
  std::vector<Stratum> strata{{10, 1.0, 1.0}, {0, 1.0, 1.0}, {10, 1.0, 1.0}};
  const auto a = optimal_allocation(strata, 0);
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(a[1], 0u);
  EXPECT_EQ(a[2], 1u);
}

TEST(StandardError, OverdrawnStratumClampsFpcToZero) {
  // Regression: n_h > N_h made the finite-population correction negative,
  // so the summed variance could go negative and sqrt() return NaN.
  std::vector<Stratum> strata{{4, 2.0, 1.0}};
  const std::vector<std::size_t> overdrawn{9};
  const double se = stratified_standard_error(strata, overdrawn);
  EXPECT_TRUE(std::isfinite(se));
  EXPECT_DOUBLE_EQ(se, 0.0);  // census (and then some) ⇒ no estimator error
}

TEST(StandardError, NonFiniteStddevContributesNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Stratum> strata{{100, nan, 1.0}, {100, 0.5, 1.0}};
  const std::vector<std::size_t> alloc{10, 10};
  const double se = stratified_standard_error(strata, alloc);
  EXPECT_TRUE(std::isfinite(se));
  std::vector<Stratum> clean{{100, 0.0, 1.0}, {100, 0.5, 1.0}};
  EXPECT_DOUBLE_EQ(se, stratified_standard_error(clean, alloc));
}

TEST(ConfidenceInterval, SingleUnitStrataStayFinite) {
  // A stratum with one sampled unit has undefined sample stddev upstream;
  // with the σ→0 convention the stratified CI must still be finite.
  std::vector<Stratum> strata{{1, 0.0, 2.0}, {50, 0.3, 1.0}};
  const auto alloc = optimal_allocation(strata, 10);
  const double se = stratified_standard_error(strata, alloc);
  const auto ci = confidence_interval(stratified_population_mean(strata), se,
                                      kZ997);
  EXPECT_TRUE(std::isfinite(ci.low()));
  EXPECT_TRUE(std::isfinite(ci.high()));
  EXPECT_GE(ci.high(), ci.low());
}

TEST(RequiredSampleSize, RejectsBadArguments) {
  std::vector<Stratum> strata{{10, 1.0, 1.0}};
  EXPECT_THROW(required_sample_size(strata, 0.0, kZ997), ContractViolation);
  EXPECT_THROW(required_sample_size(strata, 0.05, 0.0), ContractViolation);
}

// Property sweep over random stratifications: allocation is exact in total,
// within caps, and Neyman beats proportional allocation on standard error
// (that is the point of Eq. 1).
class AllocationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocationProperty, NeymanNoWorseThanProportional) {
  Rng rng(GetParam());
  const std::size_t h = 2 + rng.next_below(6);
  std::vector<Stratum> strata;
  std::size_t pop = 0;
  for (std::size_t i = 0; i < h; ++i) {
    Stratum s;
    s.population = 20 + rng.next_below(200);
    s.stddev = rng.next_double(0.0, 2.0);
    s.mean = rng.next_double(0.5, 2.0);
    pop += s.population;
    strata.push_back(s);
  }
  const std::size_t n = std::max<std::size_t>(h, pop / 10);
  const auto neyman = optimal_allocation(strata, n);
  const auto prop = proportional_allocation(strata, n);
  EXPECT_EQ(total(neyman), n);
  EXPECT_EQ(total(prop), n);
  for (std::size_t i = 0; i < h; ++i) {
    EXPECT_LE(neyman[i], strata[i].population);
  }
  const double se_neyman = stratified_standard_error(strata, neyman);
  const double se_prop = stratified_standard_error(strata, prop);
  // Floors introduce slight deviations from the textbook optimum; allow 5%.
  EXPECT_LE(se_neyman, se_prop * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationProperty,
                         ::testing::Range<std::uint64_t>(100, 112));

}  // namespace
}  // namespace simprof::stats
