#include "platform/machine.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace rltherm::platform {
namespace {

MachineConfig quietSensors() {
  MachineConfig config;
  config.sensor.noiseSigma = 0.0;
  config.sensor.quantizationStep = 0.0;
  return config;
}

double fullActivity(ThreadId) { return 1.0; }

TEST(MachineTest, WarmStartNearIdleSteadyState) {
  Machine machine(quietSensors());
  for (const Celsius t : machine.trueCoreTemperatures()) {
    EXPECT_GT(t, 27.0);
    EXPECT_LT(t, 35.0);
  }
}

TEST(MachineTest, ColdStartAtAmbient) {
  MachineConfig config = quietSensors();
  config.warmStart = false;
  Machine machine(config);
  for (const Celsius t : machine.trueCoreTemperatures()) {
    EXPECT_DOUBLE_EQ(t, config.thermal.ambient);
  }
}

TEST(MachineTest, IdleTickConsumesOnlyBasePower) {
  Machine machine(quietSensors());
  const TickResult result = machine.tick(fullActivity);
  EXPECT_TRUE(result.executed.empty());
  EXPECT_GT(result.staticPower, 0.0);
  EXPECT_GT(result.dynamicPower, 0.0);   // clock tree floor
  EXPECT_LT(result.dynamicPower, 10.0);  // far below loaded power
}

TEST(MachineTest, BusyThreadHeatsItsCore) {
  Machine machine(quietSensors());
  machine.setGovernor({GovernorKind::Performance, 0.0});
  machine.scheduler().addThread(1, sched::AffinityMask::single(0));
  const Celsius before = machine.trueCoreTemperatures()[0];
  for (int i = 0; i < 500; ++i) (void)machine.tick(fullActivity);  // 5 s
  const std::vector<Celsius> after = machine.trueCoreTemperatures();
  EXPECT_GT(after[0], before + 5.0);
  EXPECT_GT(after[0], after[3]);  // pinned core hotter than far idle core
}

TEST(MachineTest, ProgressMatchesFrequencyRatio) {
  Machine machine(quietSensors());
  machine.setGovernor({GovernorKind::Userspace, 1.6e9});
  machine.scheduler().addThread(1, sched::AffinityMask::single(0));
  const TickResult result = machine.tick(fullActivity);
  ASSERT_EQ(result.executed.size(), 1u);
  EXPECT_NEAR(result.executed[0].progress, 0.01 * (1.6 / 3.4), 1e-12);
}

TEST(MachineTest, GovernorSettingApplied) {
  Machine machine(quietSensors());
  machine.setGovernor({GovernorKind::Powersave, 0.0});
  for (const Hertz f : machine.coreFrequencies()) EXPECT_DOUBLE_EQ(f, 1.6e9);
  machine.setGovernor({GovernorKind::Performance, 0.0});
  for (const Hertz f : machine.coreFrequencies()) EXPECT_DOUBLE_EQ(f, 3.4e9);
  machine.setGovernor({GovernorKind::Userspace, 2.4e9});
  for (const Hertz f : machine.coreFrequencies()) EXPECT_DOUBLE_EQ(f, 2.4e9);
}

TEST(MachineTest, OndemandDropsFrequencyWhenIdle) {
  MachineConfig config = quietSensors();
  config.initialGovernor = {GovernorKind::Ondemand, 0.0};
  Machine machine(config);
  for (int i = 0; i < 50; ++i) (void)machine.tick(fullActivity);  // > 1 period, idle
  for (const Hertz f : machine.coreFrequencies()) EXPECT_DOUBLE_EQ(f, 1.6e9);
}

TEST(MachineTest, OndemandRampsUpUnderLoad) {
  MachineConfig config = quietSensors();
  config.initialGovernor = {GovernorKind::Ondemand, 0.0};
  Machine machine(config);
  for (int i = 0; i < 50; ++i) (void)machine.tick(fullActivity);  // settle low
  machine.scheduler().addThread(1, sched::AffinityMask::single(0));
  for (int i = 0; i < 50; ++i) (void)machine.tick(fullActivity);
  EXPECT_DOUBLE_EQ(machine.coreFrequencies()[0], 3.4e9);
}

TEST(MachineTest, EnergyMeterAccumulates) {
  Machine machine(quietSensors());
  for (int i = 0; i < 100; ++i) (void)machine.tick(fullActivity);
  EXPECT_NEAR(machine.energyMeter().elapsed(), 1.0, 1e-9);
  EXPECT_GT(machine.energyMeter().totalEnergy(), 0.0);
  machine.resetAccounting();
  EXPECT_DOUBLE_EQ(machine.energyMeter().totalEnergy(), 0.0);
}

TEST(MachineTest, SensorsCoverAllCores) {
  Machine machine(quietSensors());
  const std::vector<Celsius> readings = machine.readSensors();
  EXPECT_EQ(readings.size(), machine.coreCount());
  const std::vector<Celsius> truth = machine.trueCoreTemperatures();
  for (std::size_t c = 0; c < readings.size(); ++c) {
    EXPECT_DOUBLE_EQ(readings[c], truth[c]);  // noiseless config
  }
}

TEST(MachineTest, TimeAdvancesByTick) {
  Machine machine(quietSensors());
  EXPECT_DOUBLE_EQ(machine.now(), 0.0);
  (void)machine.tick(fullActivity);
  EXPECT_DOUBLE_EQ(machine.now(), machine.tickLength());
}

TEST(MachineTest, ActivityOutOfRangeRejected) {
  Machine machine(quietSensors());
  machine.scheduler().addThread(1, sched::AffinityMask::single(0));
  EXPECT_THROW(machine.tick([](ThreadId) { return 1.5; }), PreconditionError);
}

TEST(MachineTest, PerfCountersTrackExecution) {
  Machine machine(quietSensors());
  machine.scheduler().addThread(1, sched::AffinityMask::single(0));
  for (int i = 0; i < 100; ++i) (void)machine.tick(fullActivity);
  EXPECT_GT(machine.perfCounters().sample().instructions, 0u);
  EXPECT_GT(machine.perfCounters().sample().cycles, 0u);
}

TEST(MachineTest, InvalidConfigRejected) {
  MachineConfig config;
  config.tick = 0.0;
  EXPECT_THROW(Machine{config}, PreconditionError);
  config = MachineConfig{};
  config.governorPeriod = config.tick / 2.0;
  EXPECT_THROW(Machine{config}, PreconditionError);
}

TEST(MachineTest, LowActivityKeepsOndemandFrequencyLow) {
  MachineConfig config = quietSensors();
  config.initialGovernor = {GovernorKind::Ondemand, 0.0};
  Machine machine(config);
  machine.scheduler().addThread(1, sched::AffinityMask::single(0));
  for (int i = 0; i < 100; ++i) {
    (void)machine.tick([](ThreadId) { return 0.15; });
  }
  EXPECT_LT(machine.coreFrequencies()[0], 2.4e9);
}

}  // namespace
}  // namespace rltherm::platform

namespace rltherm::platform {
namespace {

TEST(GridPlantMachineTest, GridResolutionProducesSimilarTemperatures) {
  MachineConfig lumpedConfig;
  lumpedConfig.sensor.noiseSigma = 0.0;
  lumpedConfig.sensor.quantizationStep = 0.0;
  MachineConfig gridConfig = lumpedConfig;
  gridConfig.thermalCellsPerCoreSide = 2;
  Machine lumped(lumpedConfig);
  Machine grid(gridConfig);
  lumped.setGovernor({GovernorKind::Performance, 0.0});
  grid.setGovernor({GovernorKind::Performance, 0.0});
  lumped.scheduler().addThread(1, sched::AffinityMask::single(0));
  grid.scheduler().addThread(1, sched::AffinityMask::single(0));
  const auto activity = [](ThreadId) { return 1.0; };
  for (int i = 0; i < 2000; ++i) {
    (void)lumped.tick(activity);
    (void)grid.tick(activity);
  }
  EXPECT_NEAR(grid.trueCoreTemperatures()[0], lumped.trueCoreTemperatures()[0], 3.0);
  EXPECT_NEAR(grid.trueCoreTemperatures()[3], lumped.trueCoreTemperatures()[3], 3.0);
}

TEST(GridPlantMachineTest, SensorReadsHotSpotAboveMean) {
  MachineConfig config;
  config.sensor.noiseSigma = 0.0;
  config.sensor.quantizationStep = 0.0;
  config.thermalCellsPerCoreSide = 3;
  Machine machine(config);
  machine.setGovernor({GovernorKind::Performance, 0.0});
  machine.scheduler().addThread(1, sched::AffinityMask::single(0));
  const auto activity = [](ThreadId) { return 1.0; };
  for (int i = 0; i < 2000; ++i) (void)machine.tick(activity);
  // The DTS-style sensor reports the hottest cell of the loaded core, which
  // sits above the core's mean temperature.
  EXPECT_GT(machine.readSensors()[0], machine.trueCoreTemperatures()[0]);
}

TEST(GridPlantMachineTest, OddCoreCountRunsAtGridResolution) {
  // Three cores in two columns leave the last row partial.
  MachineConfig config;
  config.coreCount = 3;
  config.thermalCellsPerCoreSide = 2;
  config.sensor.noiseSigma = 0.0;
  config.sensor.quantizationStep = 0.0;
  Machine machine(config);
  for (const Celsius t : machine.trueCoreTemperatures()) {
    EXPECT_GT(t, 27.0);
    EXPECT_LT(t, 35.0);
  }
  machine.setGovernor({GovernorKind::Performance, 0.0});
  machine.scheduler().addThread(1, sched::AffinityMask::single(2));
  for (int i = 0; i < 500; ++i) (void)machine.tick(fullActivity);
  const std::vector<Celsius> temps = machine.trueCoreTemperatures();
  ASSERT_EQ(temps.size(), 3u);
  EXPECT_GT(temps[2], temps[1]);
  EXPECT_EQ(machine.readSensors().size(), 3u);
}

TEST(GridPlantMachineTest, WarmStartWorksAtGridResolution) {
  MachineConfig config;
  config.sensor.noiseSigma = 0.0;
  config.thermalCellsPerCoreSide = 2;
  Machine machine(config);
  for (const Celsius t : machine.trueCoreTemperatures()) {
    EXPECT_GT(t, 27.0);
    EXPECT_LT(t, 35.0);
  }
}

}  // namespace
}  // namespace rltherm::platform
