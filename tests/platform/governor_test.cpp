#include "platform/governor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "power/vf_table.hpp"

namespace rltherm::platform {
namespace {

const power::VfTable& table() {
  static const power::VfTable t = power::VfTable::defaultQuadCore();
  return t;
}

/// Governor::decide in frequencies; `current` must be a table point.
Hertz decide(Governor& g, double utilization, Hertz current) {
  return table().point(g.decide(utilization, table().floorIndex(current))).frequency;
}

TEST(GovernorTest, PerformanceAlwaysMax) {
  auto g = makeGovernor({GovernorKind::Performance, 0.0}, table());
  EXPECT_DOUBLE_EQ(decide(*g, 0.0, 1.6e9), 3.4e9);
  EXPECT_DOUBLE_EQ(decide(*g, 1.0, 3.4e9), 3.4e9);
  EXPECT_EQ(g->kind(), GovernorKind::Performance);
}

TEST(GovernorTest, PowersaveAlwaysMin) {
  auto g = makeGovernor({GovernorKind::Powersave, 0.0}, table());
  EXPECT_DOUBLE_EQ(decide(*g, 1.0, 3.4e9), 1.6e9);
  EXPECT_DOUBLE_EQ(decide(*g, 0.0, 1.6e9), 1.6e9);
}

TEST(GovernorTest, UserspaceHoldsTarget) {
  auto g = makeGovernor({GovernorKind::Userspace, 2.4e9}, table());
  EXPECT_DOUBLE_EQ(decide(*g, 0.0, 1.6e9), 2.4e9);
  EXPECT_DOUBLE_EQ(decide(*g, 1.0, 3.4e9), 2.4e9);
}

TEST(GovernorTest, UserspaceSnapsDownToOperatingPoint) {
  auto g = makeGovernor({GovernorKind::Userspace, 2.5e9}, table());
  EXPECT_DOUBLE_EQ(decide(*g, 0.5, 2.4e9), 2.4e9);
}

TEST(GovernorTest, UserspaceRequiresFrequency) {
  EXPECT_THROW(makeGovernor({GovernorKind::Userspace, 0.0}, table()), PreconditionError);
}

TEST(GovernorTest, OndemandJumpsToMaxAboveThreshold) {
  auto g = makeGovernor({GovernorKind::Ondemand, 0.0}, table());
  EXPECT_DOUBLE_EQ(decide(*g, 0.85, 1.6e9), 3.4e9);
  EXPECT_DOUBLE_EQ(decide(*g, 0.80, 1.6e9), 3.4e9);
}

TEST(GovernorTest, OndemandScalesProportionallyBelowThreshold) {
  auto g = makeGovernor({GovernorKind::Ondemand, 0.0}, table());
  // target = 3.4 GHz * util / 0.8, snapped up to the next operating point.
  EXPECT_DOUBLE_EQ(decide(*g, 0.40, 3.4e9), 2.0e9);  // 1.7 GHz -> 2.0
  EXPECT_DOUBLE_EQ(decide(*g, 0.10, 3.4e9), 1.6e9);
  EXPECT_DOUBLE_EQ(decide(*g, 0.0, 3.4e9), 1.6e9);
}

TEST(GovernorTest, OndemandIsHistoryFree) {
  auto g = makeGovernor({GovernorKind::Ondemand, 0.0}, table());
  const Hertz a = decide(*g, 0.4, 1.6e9);
  const Hertz b = decide(*g, 0.4, 3.4e9);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(GovernorTest, ConservativeStepsUpOne) {
  auto g = makeGovernor({GovernorKind::Conservative, 0.0}, table());
  EXPECT_DOUBLE_EQ(decide(*g, 0.9, 1.6e9), 2.0e9);
  EXPECT_DOUBLE_EQ(decide(*g, 0.9, 2.0e9), 2.4e9);
}

TEST(GovernorTest, ConservativeStepsDownOne) {
  auto g = makeGovernor({GovernorKind::Conservative, 0.0}, table());
  EXPECT_DOUBLE_EQ(decide(*g, 0.1, 3.4e9), 2.8e9);
}

TEST(GovernorTest, ConservativeHoldsInDeadband) {
  auto g = makeGovernor({GovernorKind::Conservative, 0.0}, table());
  EXPECT_DOUBLE_EQ(decide(*g, 0.5, 2.4e9), 2.4e9);
}

TEST(GovernorTest, ConservativeSaturatesAtExtremes) {
  auto g = makeGovernor({GovernorKind::Conservative, 0.0}, table());
  EXPECT_DOUBLE_EQ(decide(*g, 0.99, 3.4e9), 3.4e9);
  EXPECT_DOUBLE_EQ(decide(*g, 0.0, 1.6e9), 1.6e9);
}

TEST(GovernorTest, ToStringNames) {
  EXPECT_EQ(toString(GovernorKind::Ondemand), "ondemand");
  EXPECT_EQ(toString(GovernorKind::Powersave), "powersave");
  GovernorSetting s{GovernorKind::Userspace, 2.4e9};
  EXPECT_EQ(s.toString(), "userspace@2.4GHz");
  GovernorSetting o{GovernorKind::Ondemand, 0.0};
  EXPECT_EQ(o.toString(), "ondemand");
}

class OndemandMonotone : public ::testing::TestWithParam<double> {};

TEST_P(OndemandMonotone, FrequencyNonDecreasingInUtilization) {
  auto g = makeGovernor({GovernorKind::Ondemand, 0.0}, table());
  const double u = GetParam();
  const Hertz lower = decide(*g, u, 2.4e9);
  const Hertz higher = decide(*g, std::min(1.0, u + 0.2), 2.4e9);
  EXPECT_LE(lower, higher);
}

INSTANTIATE_TEST_SUITE_P(Utils, OndemandMonotone,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8));

}  // namespace
}  // namespace rltherm::platform
