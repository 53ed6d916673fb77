// Unit tests for the input-sensitivity machinery (Section III-D /
// Algorithm 1): unit classification onto training centers, the Eq. 6
// mean/stddev 10% rule, and report accumulation across references.
#include <gtest/gtest.h>

#include <limits>

#include "core/sensitivity.h"
#include "support/assert.h"
#include "test_util.h"

namespace simprof::core {
namespace {

using testing::SyntheticPhase;
using testing::synthetic_profile;

TEST(ClassifyUnits, SelfClassificationMatchesTrainingLabels) {
  auto p = synthetic_profile({{40, 0.5, 0.05, 1}, {40, 2.0, 0.1, 2}});
  const auto model = form_phases(p);
  const auto labels = classify_units(model, p);
  ASSERT_EQ(labels.size(), model.labels.size());
  EXPECT_EQ(labels, model.labels);
}

TEST(ClassifyUnits, MatchesByNameAcrossDifferentMethodTables) {
  auto train = synthetic_profile({{30, 0.5, 0.0, 1}, {30, 2.0, 0.0, 2}});
  const auto model = form_phases(train);

  // Reference profile with the same method *names* but permuted ids.
  ThreadProfile ref;
  ref.method_names = {"m2", "m0", "m1"};  // permutation of the training table
  ref.method_kinds = {jvm::OpKind::kMap, jvm::OpKind::kFramework,
                      jvm::OpKind::kMap};
  for (int i = 0; i < 10; ++i) {
    UnitRecord u;
    u.unit_id = static_cast<std::uint64_t>(i);
    u.counters.instructions = 1'000'000;
    u.counters.cycles = 500'000;
    // Dominated by "m2" (local id 0) + background "m0" (local id 1).
    u.methods = {0, 1};
    u.counts = {30, 10};
    ref.units.push_back(std::move(u));
  }
  const auto labels = classify_units(model, ref);
  // All reference units look like the training phase dominated by "m2".
  std::size_t m2_phase = labels[0];
  for (auto l : labels) EXPECT_EQ(l, m2_phase);
  // And that phase must be the one whose training units carried m2.
  for (std::size_t u = 0; u < train.num_units(); ++u) {
    if (train.units[u].methods[1] == 2) {
      EXPECT_EQ(model.labels[u], m2_phase);
    }
  }
}

TEST(PhaseSensitivity, IdenticalInputIsInsensitive) {
  auto p = synthetic_profile({{50, 0.8, 0.05, 1}, {50, 1.8, 0.05, 2}});
  const auto model = form_phases(p);
  const auto per_phase = phase_sensitivity_test(model, p);
  for (const auto& s : per_phase) {
    EXPECT_FALSE(s.sensitive);
    EXPECT_LT(s.mean_delta, 0.01);
  }
}

TEST(PhaseSensitivity, ShiftedMeanTripsTheTenPercentRule) {
  auto train = synthetic_profile({{60, 1.0, 0.02, 1}, {60, 2.0, 0.02, 2}});
  const auto model = form_phases(train);
  // Reference: same stacks, phase-1 units 30% slower.
  auto ref = synthetic_profile({{60, 1.0, 0.02, 1}, {60, 2.6, 0.02, 2}});
  const auto per_phase = phase_sensitivity_test(model, ref);
  int sensitive = 0;
  for (const auto& s : per_phase) sensitive += s.sensitive ? 1 : 0;
  EXPECT_EQ(sensitive, 1);
}

TEST(PhaseSensitivity, StddevShiftAloneAlsoTrips) {
  auto train = synthetic_profile({{200, 1.0, 0.05, 1}}, 5);
  const auto model = form_phases(train);
  auto ref = synthetic_profile({{200, 1.0, 0.50, 1}}, 6);
  const auto per_phase = phase_sensitivity_test(model, ref);
  ASSERT_EQ(per_phase.size(), 1u);
  EXPECT_TRUE(per_phase[0].sensitive);
  EXPECT_LT(per_phase[0].mean_delta, 0.10);  // mean was unchanged
  EXPECT_GT(per_phase[0].stddev_delta, 0.10);
}

TEST(PhaseSensitivity, ThresholdIsConfigurable) {
  auto train = synthetic_profile({{100, 1.0, 0.0, 1}});
  const auto model = form_phases(train);
  auto ref = synthetic_profile({{100, 1.05, 0.0, 1}});  // 5% shift
  EXPECT_FALSE(phase_sensitivity_test(model, ref, 0.10)[0].sensitive);
  EXPECT_TRUE(phase_sensitivity_test(model, ref, 0.02)[0].sensitive);
}

TEST(PhaseSensitivity, MissingPhaseInReferenceNotSensitive) {
  auto train = synthetic_profile({{40, 0.5, 0.0, 1}, {40, 2.0, 0.0, 2}});
  const auto model = form_phases(train);
  // Reference exercises only the method-1 phase.
  auto ref = synthetic_profile({{40, 0.5, 0.0, 1}});
  const auto per_phase = phase_sensitivity_test(model, ref);
  int with_refs = 0;
  for (const auto& s : per_phase) {
    if (s.ref_count == 0) {
      EXPECT_FALSE(s.sensitive);
    } else {
      ++with_refs;
    }
  }
  EXPECT_EQ(with_refs, 1);
}

TEST(Report, AccumulatesAcrossReferences) {
  // Algorithm 1: a phase is sensitive if ANY reference trips it.
  auto train = synthetic_profile({{60, 1.0, 0.02, 1}, {60, 2.0, 0.02, 2}});
  const auto model = form_phases(train);
  auto ref_same = synthetic_profile({{60, 1.0, 0.02, 1}, {60, 2.0, 0.02, 2}});
  auto ref_shift = synthetic_profile({{60, 1.4, 0.02, 1}, {60, 2.0, 0.02, 2}});
  const auto report = input_sensitivity_test(
      model, {&ref_same, &ref_shift}, {"same", "shifted"});
  EXPECT_EQ(report.num_sensitive(), 1u);
  EXPECT_EQ(report.num_insensitive(), 1u);
  ASSERT_EQ(report.per_reference.size(), 2u);
  EXPECT_EQ(report.reference_names[1], "shifted");
}

TEST(Report, SensitivePointFraction) {
  auto train = synthetic_profile({{80, 1.0, 0.3, 1}, {20, 2.0, 0.3, 2}}, 3);
  const auto model = form_phases(train);
  auto ref = synthetic_profile({{80, 1.6, 0.3, 1}, {20, 2.0, 0.3, 2}}, 4);
  const auto report = input_sensitivity_test(model, {&ref}, {"ref"});
  const auto plan = simprof_sample(train, model, 20, 9);

  const double frac = report.sensitive_point_fraction(plan);
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  // Only the large phase moved; the fraction equals the share of plan
  // points that landed in it.
  std::size_t in_sensitive = 0;
  for (const auto& pt : plan.points) {
    if (report.phase_sensitive[pt.phase]) ++in_sensitive;
  }
  EXPECT_NEAR(frac,
              static_cast<double>(in_sensitive) /
                  static_cast<double>(plan.points.size()),
              1e-12);
}

TEST(Report, MismatchedNamesThrow) {
  auto train = synthetic_profile({{10, 1.0, 0.0, 1}});
  const auto model = form_phases(train);
  auto ref = synthetic_profile({{10, 1.0, 0.0, 1}});
  EXPECT_THROW(input_sensitivity_test(model, {&ref}, {"a", "b"}),
               ContractViolation);
  EXPECT_THROW(input_sensitivity_test(model, {nullptr}, {"a"}),
               ContractViolation);
}

TEST(Report, NonFiniteOrNegativeThresholdIsRejected) {
  auto train = synthetic_profile({{20, 1.0, 0.05, 1}, {20, 2.0, 0.05, 2}});
  const auto model = form_phases(train);
  auto ref = synthetic_profile({{20, 1.5, 0.05, 1}, {20, 2.0, 0.05, 2}});
  for (const double t : {std::numeric_limits<double>::quiet_NaN(), -0.1,
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(input_sensitivity_test(model, {&ref}, {"ref"}, t),
                 ContractViolation)
        << "threshold " << t;
  }
  // The boundary itself is a valid (maximally strict) threshold.
  EXPECT_NO_THROW(input_sensitivity_test(model, {&ref}, {"ref"}, 0.0));
}

}  // namespace
}  // namespace simprof::core
