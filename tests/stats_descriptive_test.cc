// Unit tests for descriptive statistics and the grouped-CoV summary used in
// the Figure 6 homogeneity analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "support/assert.h"
#include "support/rng.h"

namespace simprof::stats {
namespace {

TEST(Descriptive, MeanOfKnownValues) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Descriptive, SampleVarianceMatchesHandComputation) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // population variance of this classic example is 4; sample variance 32/7.
  EXPECT_NEAR(population_variance(xs), 4.0, 1e-12);
  EXPECT_NEAR(sample_variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(sample_stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, VarianceDegenerateCases) {
  EXPECT_DOUBLE_EQ(sample_variance(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(population_variance(std::vector<double>{}), 0.0);
}

TEST(Descriptive, CovOfConstantSeriesIsZero) {
  std::vector<double> xs{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 0.0);
}

TEST(Descriptive, CovScaleInvariance) {
  std::vector<double> xs{1.0, 2.0, 3.0};
  std::vector<double> ys{10.0, 20.0, 30.0};
  EXPECT_NEAR(coefficient_of_variation(xs), coefficient_of_variation(ys),
              1e-12);
}

TEST(Descriptive, MinMax) {
  std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
}

TEST(Descriptive, PearsonPerfectAndAnti) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Descriptive, PearsonConstantSideIsZero) {
  std::vector<double> x{1, 1, 1};
  std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(GroupedCov, PerfectSeparationGivesZeroWeightedCov) {
  // Two groups, each internally constant but with different means: the
  // population CoV is high while every group CoV is zero — the ideal phase
  // formation of the paper's Figure 6 discussion.
  std::vector<double> values{1, 1, 1, 5, 5, 5};
  std::vector<std::size_t> labels{0, 0, 0, 1, 1, 1};
  const CovSummary s = grouped_cov(values, labels, 2);
  EXPECT_GT(s.population, 0.5);
  EXPECT_DOUBLE_EQ(s.weighted, 0.0);
  EXPECT_DOUBLE_EQ(s.maximum, 0.0);
}

TEST(GroupedCov, UselessGroupingKeepsWeightedCovHigh) {
  std::vector<double> values{1, 5, 1, 5, 1, 5};
  std::vector<std::size_t> labels{0, 0, 0, 1, 1, 1};  // mixes both levels
  const CovSummary s = grouped_cov(values, labels, 2);
  EXPECT_GT(s.weighted, 0.4 * s.population);
}

TEST(GroupedCov, WeightedIsCountWeightedAverage) {
  // Group 0 (4 units) CoV 0; group 1 (2 units) CoV c.
  std::vector<double> values{2, 2, 2, 2, 1, 3};
  std::vector<std::size_t> labels{0, 0, 0, 0, 1, 1};
  const CovSummary s = grouped_cov(values, labels, 2);
  const double c1 = coefficient_of_variation(std::vector<double>{1.0, 3.0});
  EXPECT_NEAR(s.weighted, c1 * 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(s.maximum, c1, 1e-12);
}

TEST(GroupedCov, EmptyGroupsIgnored) {
  std::vector<double> values{1, 2};
  std::vector<std::size_t> labels{0, 0};
  const CovSummary s = grouped_cov(values, labels, 3);
  EXPECT_GE(s.maximum, 0.0);
}

TEST(GroupedCov, MismatchedLengthsThrow) {
  std::vector<double> values{1, 2};
  std::vector<std::size_t> labels{0};
  EXPECT_THROW(grouped_cov(values, labels, 1), ContractViolation);
}

// Property sweep: weighted CoV never exceeds max CoV, and grouping by the
// true generator always lowers weighted CoV below population CoV.
class GroupedCovProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupedCovProperty, WeightedBelowPopulationForTrueGrouping) {
  Rng rng(GetParam());
  const std::size_t groups = 2 + rng.next_below(4);
  std::vector<double> values;
  std::vector<std::size_t> labels;
  for (std::size_t g = 0; g < groups; ++g) {
    const double mean = 0.5 + static_cast<double>(g) * 1.5;
    const std::size_t n = 20 + rng.next_below(30);
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(mean + 0.05 * rng.next_gaussian());
      labels.push_back(g);
    }
  }
  const CovSummary s = grouped_cov(values, labels, groups);
  EXPECT_LE(s.weighted, s.maximum + 1e-12);
  EXPECT_LT(s.weighted, s.population);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupedCovProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace simprof::stats
