#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace rltherm::core {
namespace {

TEST(ConfigIoTest, EmptyConfigGivesDefaults) {
  const ConfigFile empty;
  const RunnerConfig runner = runnerConfigFrom(empty);
  const RunnerConfig defaults;
  EXPECT_EQ(runner.machine.coreCount, defaults.machine.coreCount);
  EXPECT_DOUBLE_EQ(runner.traceInterval, defaults.traceInterval);
  EXPECT_DOUBLE_EQ(runner.analysisWarmup, defaults.analysisWarmup);

  const ThermalManagerConfig manager = managerConfigFrom(empty);
  const ThermalManagerConfig managerDefaults;
  EXPECT_DOUBLE_EQ(manager.samplingInterval, managerDefaults.samplingInterval);
  EXPECT_EQ(manager.stressBins, managerDefaults.stressBins);
}

TEST(ConfigIoTest, MachineAndThermalKeysApplied) {
  const ConfigFile config = ConfigFile::parse(R"(
[machine]
cores = 2
tick = 0.02
warm_start = false
[thermal]
ambient = 30
sink_to_ambient = 0.5
[sensor]
noise_sigma = 0
quantization = 1.0
[runner]
trace_interval = 2.0
max_sim_time = 123
warmup = 5
cooldown = 1
)");
  const RunnerConfig runner = runnerConfigFrom(config);
  EXPECT_EQ(runner.machine.coreCount, 2u);
  EXPECT_DOUBLE_EQ(runner.machine.tick, 0.02);
  EXPECT_FALSE(runner.machine.warmStart);
  EXPECT_DOUBLE_EQ(runner.machine.thermal.ambient, 30.0);
  EXPECT_DOUBLE_EQ(runner.machine.thermal.sinkToAmbient, 0.5);
  EXPECT_DOUBLE_EQ(runner.machine.sensor.noiseSigma, 0.0);
  EXPECT_DOUBLE_EQ(runner.machine.sensor.quantizationStep, 1.0);
  EXPECT_DOUBLE_EQ(runner.traceInterval, 2.0);
  EXPECT_DOUBLE_EQ(runner.maxSimTime, 123.0);
  EXPECT_DOUBLE_EQ(runner.analysisWarmup, 5.0);
  EXPECT_DOUBLE_EQ(runner.analysisCooldown, 1.0);
}

TEST(ConfigIoTest, BigLittleFlagInstallsCoreTypes) {
  const ConfigFile config = ConfigFile::parse("[machine]\nbig_little = yes\n");
  const RunnerConfig runner = runnerConfigFrom(config);
  ASSERT_EQ(runner.machine.coreTypes.size(), 4u);
  EXPECT_EQ(runner.machine.coreTypes[2].name, "little");
}

TEST(ConfigIoTest, BigLittleRequiresFourCores) {
  const ConfigFile config =
      ConfigFile::parse("[machine]\ncores = 2\nbig_little = yes\n");
  EXPECT_THROW((void)runnerConfigFrom(config), PreconditionError);
}

TEST(ConfigIoTest, ManagerKeysApplied) {
  const ConfigFile config = ConfigFile::parse(R"(
[manager]
sampling_interval = 1.5
decision_epoch = 15
stress_bins = 3
aging_bins = 5
gamma = 0.5
adaptive_sampling = yes
decision_overhead = 0.1
seed = 99
intra_threshold_aging = 0.07
inter_threshold_aging = 0.2
)");
  const ThermalManagerConfig manager = managerConfigFrom(config);
  EXPECT_DOUBLE_EQ(manager.samplingInterval, 1.5);
  EXPECT_DOUBLE_EQ(manager.decisionEpoch, 15.0);
  EXPECT_EQ(manager.stressBins, 3u);
  EXPECT_EQ(manager.agingBins, 5u);
  EXPECT_DOUBLE_EQ(manager.gamma, 0.5);
  EXPECT_TRUE(manager.adaptiveSampling);
  EXPECT_DOUBLE_EQ(manager.decisionOverhead, 0.1);
  EXPECT_EQ(manager.seed, 99u);
  EXPECT_DOUBLE_EQ(manager.intraThresholdAging, 0.07);
  EXPECT_DOUBLE_EQ(manager.interThresholdAging, 0.2);
}

/// The PreconditionError message a config load throws, or "" if none.
std::string rejection(const std::string& text, bool manager) {
  try {
    const ConfigFile config = ConfigFile::parse(text);
    if (manager) {
      (void)managerConfigFrom(config);
    } else {
      (void)runnerConfigFrom(config);
    }
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigIoTest, CoreCountBelowOneRejected) {
  EXPECT_EQ(rejection("[machine]\ncores = -1\n", false),
            "config [machine] cores: -1 must be >= 1");
  EXPECT_EQ(rejection("[machine]\ncores = 0\n", false),
            "config [machine] cores: 0 must be >= 1");
}

TEST(ConfigIoTest, NegativeThermalCellsRejected) {
  EXPECT_EQ(rejection("[machine]\nthermal_cells = -1\n", false),
            "config [machine] thermal_cells: -1 must be >= 1");
}

TEST(ConfigIoTest, ZeroThermalCellsRejected) {
  // 0 once fell back to the lumped package silently; 1 is the lumped value.
  EXPECT_EQ(rejection("[machine]\nthermal_cells = 0\n", false),
            "config [machine] thermal_cells: 0 must be >= 1");
  EXPECT_EQ(rejection("[machine]\nthermal_cells = 1\n", false), "");
}

TEST(ConfigIoTest, BinCountsOutsideTwoToSixtyFourRejected) {
  EXPECT_EQ(rejection("[manager]\nstress_bins = -1\n", true),
            "config [manager] stress_bins: -1 must be in [2, 64]");
  EXPECT_EQ(rejection("[manager]\naging_bins = 65\n", true),
            "config [manager] aging_bins: 65 must be in [2, 64]");
  EXPECT_EQ(rejection("[manager]\nstress_bins = 2\naging_bins = 64\n", true), "");
}

TEST(ConfigIoTest, ProposedPolicyRequiresFourCores) {
  const auto proposedRejection = [](const char* text) -> std::string {
    try {
      requireProposedPolicyMachine(runnerConfigFrom(ConfigFile::parse(text)));
    } catch (const PreconditionError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(proposedRejection("[machine]\ncores = 3\n"),
            "config [machine] cores: 3 must be 4 for the proposed policy "
            "(its action space is built for 4 cores)");
  EXPECT_EQ(proposedRejection("[machine]\ncores = 8\nthermal_cells = 2\n"),
            "config [machine] cores: 8 must be 4 for the proposed policy "
            "(its action space is built for 4 cores)");
  EXPECT_EQ(proposedRejection(""), "");
  EXPECT_EQ(proposedRejection("[machine]\ncores = 4\nthermal_cells = 4\n"), "");
}

TEST(ConfigIoTest, LoadedConfigsConstructWorkingObjects) {
  const ConfigFile config = ConfigFile::parse(
      "[machine]\ncores = 2\n[manager]\nsampling_interval = 1\ndecision_epoch = 4\n");
  const RunnerConfig runnerConfig = runnerConfigFrom(config);
  PolicyRunner runner(runnerConfig);
  ThermalManager manager(managerConfigFrom(config), ActionSpace::standard(2));
  EXPECT_DOUBLE_EQ(manager.samplingInterval(), 1.0);
}

}  // namespace
}  // namespace rltherm::core
