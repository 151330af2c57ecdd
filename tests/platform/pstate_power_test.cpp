// The machine's per-P-state power tables against the power models, bit for
// bit. Machine::tick computes each core's dynamic and leakage power with
// power::PStatePower; a product reassociated there (a scale folded into the
// table, a prefix multiplied in a different order) changes the last bit of
// the power map and every downstream digest, and fails here by name.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "platform/machine.hpp"
#include "power/power_model.hpp"
#include "power/vf_table.hpp"

namespace rltherm::platform {
namespace {

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The homogeneous default, both halves of big.LITTLE, and a type whose
/// scales are not powers of two (multiplying by 1 or 0.5 is exact, so it
/// alone shows a scale moved inside a product).
std::vector<CoreTypeSpec> coreTypes() {
  std::vector<CoreTypeSpec> types{CoreTypeSpec{}};
  for (const CoreTypeSpec& type : bigLittleCoreTypes()) types.push_back(type);
  types.push_back(CoreTypeSpec{.name = "odd",
                               .ipcScale = 0.7,
                               .dynamicPowerScale = 0.37,
                               .leakageScale = 0.61,
                               .maxFrequency = 0.0});
  return types;
}

void expectTablesMatchModels(const power::DynamicPowerConfig& dynamicConfig,
                             const power::LeakagePowerConfig& leakageConfig) {
  const power::VfTable table = power::VfTable::defaultQuadCore();
  const power::DynamicPowerModel dynamic(dynamicConfig);
  const power::LeakagePowerModel leakage(leakageConfig);
  const power::PStatePower tables(table, dynamic, leakage);
  int compared = 0;
  for (const CoreTypeSpec& type : coreTypes()) {
    for (std::size_t p = 0; p < table.size(); ++p) {
      const power::OperatingPoint& op = table.point(p);
      for (int i = 0; i <= 200; ++i) {
        const double activity = i / 200.0;
        const Watts model = dynamic.power(op, activity) * type.dynamicPowerScale;
        ASSERT_TRUE(sameBits(tables.dynamic(p, activity, type.dynamicPowerScale), model))
            << type.name << " P" << p << " activity " << activity;
        ++compared;
      }
      for (Celsius t = 20.0; t <= 110.0; t += 0.173) {
        const Watts model = leakage.power(op.voltage, t) * type.leakageScale;
        ASSERT_TRUE(sameBits(tables.leakage(p, t, type.leakageScale), model))
            << type.name << " P" << p << " T " << t;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 4 * 5 * (201 + 500));
}

TEST(PStatePowerTest, DefaultModelsBitIdentical) {
  expectTablesMatchModels(power::DynamicPowerConfig{}, power::LeakagePowerConfig{});
}

TEST(PStatePowerTest, NonDefaultModelsBitIdentical) {
  expectTablesMatchModels(
      power::DynamicPowerConfig{.effectiveCapacitance = 2.37e-9, .idleActivity = 0.13},
      power::LeakagePowerConfig{.nominalLeakage = 1.7,
                                .referenceTemp = 31.0,
                                .referenceVoltage = 1.1,
                                .tempSensitivity = 0.027,
                                .voltageExponent = 1.9});
}

}  // namespace
}  // namespace rltherm::platform
