// Tests of the heterogeneous-core (big.LITTLE) extension.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "platform/machine.hpp"

namespace rltherm::platform {
namespace {

MachineConfig bigLittleMachine() {
  MachineConfig config;
  config.sensor.noiseSigma = 0.0;
  config.sensor.quantizationStep = 0.0;
  config.coreTypes = bigLittleCoreTypes();
  return config;
}

double fullActivity(ThreadId) { return 1.0; }

TEST(HeteroTest, FactoryShape) {
  const std::vector<CoreTypeSpec> types = bigLittleCoreTypes();
  ASSERT_EQ(types.size(), 4u);
  EXPECT_EQ(types[0].name, "big");
  EXPECT_EQ(types[3].name, "little");
  EXPECT_LT(types[2].ipcScale, types[0].ipcScale);
  EXPECT_LT(types[2].dynamicPowerScale, types[0].dynamicPowerScale);
  EXPECT_GT(types[2].maxFrequency, 0.0);
}

TEST(HeteroTest, HomogeneousByDefault) {
  MachineConfig config;
  config.sensor.noiseSigma = 0.0;
  Machine machine(config);
  EXPECT_FALSE(machine.heterogeneous());
  EXPECT_DOUBLE_EQ(machine.coreType(0).ipcScale, 1.0);
}

TEST(HeteroTest, CoreTypeSizeMismatchRejected) {
  MachineConfig config;
  config.coreTypes = {CoreTypeSpec{}};  // 1 type for 4 cores
  EXPECT_THROW(Machine{config}, PreconditionError);
  config.coreTypes = bigLittleCoreTypes();
  config.coreTypes[1].ipcScale = 0.0;
  EXPECT_THROW(Machine{config}, PreconditionError);
}

TEST(HeteroTest, LittleCoreFrequencyCapped) {
  Machine machine(bigLittleMachine());
  machine.setGovernor({GovernorKind::Performance, 0.0});
  const std::vector<Hertz> f = machine.coreFrequencies();
  EXPECT_DOUBLE_EQ(f[0], 3.4e9);  // big: full table
  EXPECT_DOUBLE_EQ(f[1], 3.4e9);
  EXPECT_DOUBLE_EQ(f[2], 2.0e9);  // little: capped
  EXPECT_DOUBLE_EQ(f[3], 2.0e9);
}

TEST(HeteroTest, GovernorDecisionsAlsoCapped) {
  MachineConfig config = bigLittleMachine();
  config.initialGovernor = {GovernorKind::Ondemand, 0.0};
  Machine machine(config);
  machine.scheduler().addThread(1, sched::AffinityMask::single(2));  // load a little core
  for (int i = 0; i < 100; ++i) (void)machine.tick(fullActivity);
  EXPECT_LE(machine.coreFrequencies()[2], 2.0e9);
}

TEST(HeteroTest, DynamicGovernorsStartEveryCoreAtItsCeiling) {
  for (const GovernorKind kind : {GovernorKind::Ondemand, GovernorKind::Conservative}) {
    MachineConfig config = bigLittleMachine();
    config.initialGovernor = {kind, 0.0};
    const Machine machine(config);
    const std::vector<Hertz> f = machine.coreFrequencies();
    for (std::size_t c = 0; c < f.size(); ++c) {
      const Hertz ceiling = machine.coreType(c).maxFrequency;
      EXPECT_DOUBLE_EQ(f[c], ceiling > 0.0 ? ceiling : 3.4e9) << "core " << c;
    }
  }
}

TEST(HeteroTest, LittleCoreMakesLessProgress) {
  Machine machine(bigLittleMachine());
  machine.setGovernor({GovernorKind::Userspace, 2.0e9});  // both types can run this
  machine.scheduler().addThread(1, sched::AffinityMask::single(0));  // big
  machine.scheduler().addThread(2, sched::AffinityMask::single(2));  // little
  const TickResult result = machine.tick(fullActivity);
  ASSERT_EQ(result.executed.size(), 2u);
  double bigProgress = 0.0;
  double littleProgress = 0.0;
  for (const ThreadExecution& e : result.executed) {
    if (e.core == 0) bigProgress = e.progress;
    if (e.core == 2) littleProgress = e.progress;
  }
  EXPECT_NEAR(littleProgress / bigProgress, 0.6, 1e-9);  // ipcScale
}

TEST(HeteroTest, LittleCoreRunsCooler) {
  Machine machine(bigLittleMachine());
  machine.setGovernor({GovernorKind::Userspace, 2.0e9});
  machine.scheduler().addThread(1, sched::AffinityMask::single(0));  // big
  machine.scheduler().addThread(2, sched::AffinityMask::single(2));  // little
  for (int i = 0; i < 1000; ++i) (void)machine.tick(fullActivity);  // 10 s
  const std::vector<Celsius> temps = machine.trueCoreTemperatures();
  // Same work placement, cooler silicon (lateral coupling shares part of
  // the difference with the neighbours, so the gap is ~1.5 C, not the full
  // local-power delta).
  EXPECT_GT(temps[0], temps[2] + 1.0);
}

TEST(HeteroTest, WarmStartAccountsForCoreTypes) {
  // Idle steady state of a big.LITTLE machine is cooler than the
  // homogeneous one (little cores leak less).
  Machine hetero(bigLittleMachine());
  MachineConfig homoConfig;
  homoConfig.sensor.noiseSigma = 0.0;
  Machine homo(homoConfig);
  EXPECT_LT(hetero.trueCoreTemperatures()[2], homo.trueCoreTemperatures()[2]);
}

}  // namespace
}  // namespace rltherm::platform
