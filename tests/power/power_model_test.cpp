#include "power/power_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "power/vf_table.hpp"

namespace rltherm::power {
namespace {

TEST(DynamicPowerTest, ScalesWithVSquaredF) {
  DynamicPowerModel model(DynamicPowerConfig{.effectiveCapacitance = 1e-9, .idleActivity = 0.0});
  const OperatingPoint low{1.0e9, 1.0};
  const OperatingPoint high{2.0e9, 1.0};
  EXPECT_NEAR(model.power(high, 1.0) / model.power(low, 1.0), 2.0, 1e-12);
  const OperatingPoint highV{1.0e9, 2.0};
  EXPECT_NEAR(model.power(highV, 1.0) / model.power(low, 1.0), 4.0, 1e-12);
}

TEST(DynamicPowerTest, LinearInActivityAboveIdleFloor) {
  DynamicPowerModel model(DynamicPowerConfig{.effectiveCapacitance = 1e-9, .idleActivity = 0.1});
  const OperatingPoint op{1.0e9, 1.0};
  const Watts idle = model.power(op, 0.0);
  const Watts full = model.power(op, 1.0);
  const Watts half = model.power(op, 0.5);
  EXPECT_NEAR(half, (idle + full) / 2.0, 1e-12);
  EXPECT_GT(idle, 0.0);  // a clocked core is never free
}

TEST(DynamicPowerTest, DefaultCalibration) {
  // ~8.3 W at the top operating point with full activity.
  DynamicPowerModel model;
  const Watts p = model.power({3.4e9, 1.25}, 1.0);
  EXPECT_GT(p, 7.5);
  EXPECT_LT(p, 9.0);
}

TEST(DynamicPowerTest, ActivityOutOfRangeThrows) {
  DynamicPowerModel model;
  const OperatingPoint op{1.0e9, 1.0};
  EXPECT_THROW((void)model.power(op, -0.1), PreconditionError);
  EXPECT_THROW((void)model.power(op, 1.1), PreconditionError);
}

TEST(DynamicPowerTest, InvalidConfigRejected) {
  EXPECT_THROW(DynamicPowerModel(DynamicPowerConfig{.effectiveCapacitance = 0.0}),
               PreconditionError);
  EXPECT_THROW(DynamicPowerModel(
                   DynamicPowerConfig{.effectiveCapacitance = 1e-9, .idleActivity = 1.5}),
               PreconditionError);
}

TEST(LeakagePowerTest, NominalAtReferencePoint) {
  LeakagePowerModel model(LeakagePowerConfig{});
  const LeakagePowerConfig& c = model.config();
  EXPECT_NEAR(model.power(c.referenceVoltage, c.referenceTemp), c.nominalLeakage, 1e-12);
}

TEST(LeakagePowerTest, ExponentialInTemperature) {
  LeakagePowerModel model(LeakagePowerConfig{.tempSensitivity = 0.02});
  const Watts cold = model.power(1.25, 25.0);
  const Watts hot = model.power(1.25, 75.0);
  EXPECT_NEAR(hot / cold, std::exp(0.02 * 50.0), 1e-9);
}

TEST(LeakagePowerTest, GrowsWithVoltage) {
  LeakagePowerModel model;
  EXPECT_GT(model.power(1.25, 50.0), model.power(0.9, 50.0));
}

TEST(LeakagePowerTest, VoltageExponentApplied) {
  LeakagePowerModel model(
      LeakagePowerConfig{.referenceVoltage = 1.0, .voltageExponent = 2.0});
  const Watts atRef = model.power(1.0, 25.0);
  const Watts doubled = model.power(2.0, 25.0);
  EXPECT_NEAR(doubled / atRef, 4.0, 1e-9);
}

TEST(LeakagePowerTest, InvalidInputsRejected) {
  LeakagePowerModel model;
  EXPECT_THROW((void)model.power(0.0, 25.0), PreconditionError);
  EXPECT_THROW(LeakagePowerModel(LeakagePowerConfig{.nominalLeakage = -1.0}),
               PreconditionError);
}

TEST(LeakagePowerTest, PrecomputedVoltageScaleIsBitIdentical) {
  // A machine computes referencePower() once per P-state and multiplies by
  // temperatureScale() every tick; both must reproduce power(), and the
  // original single-expression formula, bit for bit.
  const LeakagePowerModel model;
  const LeakagePowerConfig& c = model.config();
  const auto sameBits = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  const VfTable table = VfTable::defaultQuadCore();
  for (const OperatingPoint& op : table.points()) {
    const Watts atReference = model.referencePower(op.voltage);
    for (Celsius t = -10.0; t <= 120.0; t += 0.37) {
      const Watts direct = model.power(op.voltage, t);
      const Watts oracle = c.nominalLeakage *
                           std::pow(op.voltage / c.referenceVoltage, c.voltageExponent) *
                           std::exp(c.tempSensitivity * (t - c.referenceTemp));
      EXPECT_TRUE(sameBits(atReference * model.temperatureScale(t), direct))
          << "V=" << op.voltage << " T=" << t;
      EXPECT_TRUE(sameBits(direct, oracle)) << "V=" << op.voltage << " T=" << t;
    }
  }
}

class LeakageMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(LeakageMonotonicity, MonotoneInTemperature) {
  LeakagePowerModel model;
  const Volts v = GetParam();
  Watts previous = 0.0;
  for (Celsius t = 20.0; t <= 90.0; t += 5.0) {
    const Watts p = model.power(v, t);
    EXPECT_GT(p, previous);
    previous = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Voltages, LeakageMonotonicity,
                         ::testing::Values(0.9, 1.05, 1.125, 1.25));

}  // namespace
}  // namespace rltherm::power
