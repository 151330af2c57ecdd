#include "core/action_space.hpp"

#include "core/runner.hpp"
#include "core/thermal_manager.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "workload/app_spec.hpp"

namespace rltherm::core {
namespace {

workload::AppSpec tinyApp() {
  workload::AppSpec spec;
  spec.name = "tiny";
  spec.family = "tiny";
  spec.threadCount = 4;
  spec.iterations = 100;
  spec.burstWorkMean = 0.1;
  spec.burstWorkJitter = 0.0;
  spec.burstActivity = 0.8;
  spec.serialWork = 0.05;
  return spec;
}

TEST(ActionSpaceTest, StandardHasTwelveActions) {
  const ActionSpace space = ActionSpace::standard(4);
  EXPECT_EQ(space.size(), 12u);
}

TEST(ActionSpaceTest, StandardMixesPatternsAndGovernors) {
  const ActionSpace space = ActionSpace::standard(4);
  std::set<std::string> patterns;
  std::set<std::string> governors;
  for (std::size_t i = 0; i < space.size(); ++i) {
    patterns.insert(space.action(i).pattern.name);
    governors.insert(space.action(i).governor.toString());
  }
  EXPECT_EQ(patterns.size(), 4u);
  EXPECT_EQ(governors.size(), 3u);
  EXPECT_TRUE(patterns.contains("free"));
  EXPECT_TRUE(patterns.contains("paired"));
  EXPECT_TRUE(governors.contains("ondemand"));
}

TEST(ActionSpaceTest, OfSizeProducesExactCount) {
  for (const std::size_t n : {1u, 4u, 8u, 12u, 20u, 35u}) {
    EXPECT_EQ(ActionSpace::ofSize(4, n).size(), n) << n;
  }
}

TEST(ActionSpaceTest, OfSizeBeyondGridThrows) {
  EXPECT_THROW(ActionSpace::ofSize(4, 36), PreconditionError);
  EXPECT_THROW(ActionSpace::ofSize(4, 0), PreconditionError);
}

TEST(ActionSpaceTest, OfSizeSmallSpacesStillMixPatterns) {
  const ActionSpace space = ActionSpace::ofSize(4, 4);
  std::set<std::string> patterns;
  for (std::size_t i = 0; i < space.size(); ++i) {
    patterns.insert(space.action(i).pattern.name);
  }
  EXPECT_GE(patterns.size(), 3u);
}

TEST(ActionSpaceTest, ApplySetsGovernorAndAffinity) {
  platform::MachineConfig machineConfig;
  machineConfig.sensor.noiseSigma = 0.0;
  platform::Machine machine(machineConfig);
  workload::WorkloadDriver driver(machine, workload::Scenario::of({tinyApp()}));

  const ActionSpace space = ActionSpace::standard(4);
  // Find a userspace + paired action and apply it.
  for (std::size_t i = 0; i < space.size(); ++i) {
    const Action& a = space.action(i);
    if (a.pattern.name == "paired" &&
        a.governor.kind == platform::GovernorKind::Userspace) {
      space.apply(i, machine, driver);
      EXPECT_EQ(machine.governorSetting(), a.governor);
      const std::vector<ThreadId> ids = driver.app()->threadIds();
      EXPECT_EQ(machine.scheduler().thread(ids[0]).affinity,
                sched::AffinityMask::single(0));
      return;
    }
  }
  FAIL() << "no paired/userspace action in the standard space";
}

TEST(ActionSpaceTest, ApplyFreePatternRestoresFullMask) {
  platform::MachineConfig machineConfig;
  machineConfig.sensor.noiseSigma = 0.0;
  platform::Machine machine(machineConfig);
  workload::WorkloadDriver driver(machine, workload::Scenario::of({tinyApp()}));
  const ActionSpace space = ActionSpace::standard(4);
  // Action 0 in the standard space is free/ondemand.
  EXPECT_EQ(space.action(0).pattern.name, "free");
  space.apply(0, machine, driver);
  const std::vector<ThreadId> ids = driver.app()->threadIds();
  EXPECT_EQ(machine.scheduler().thread(ids[0]).affinity, sched::AffinityMask::all(4));
}

TEST(ActionSpaceTest, ToStringIsDescriptive) {
  const ActionSpace space = ActionSpace::standard(4);
  const std::string s = space.action(0).toString();
  EXPECT_NE(s.find("free"), std::string::npos);
  EXPECT_NE(s.find("ondemand"), std::string::npos);
}

TEST(ActionSpaceTest, OutOfRangeActionThrows) {
  const ActionSpace space = ActionSpace::standard(4);
  EXPECT_THROW((void)space.action(12), std::out_of_range);
}

}  // namespace
}  // namespace rltherm::core

namespace rltherm::core {
namespace {

workload::AppSpec tinyApp2() {
  workload::AppSpec spec;
  spec.name = "tiny2";
  spec.family = "tiny2";
  spec.threadCount = 4;
  spec.iterations = 100;
  spec.burstWorkMean = 0.1;
  spec.burstWorkJitter = 0.0;
  spec.burstActivity = 0.8;
  spec.serialWork = 0.05;
  return spec;
}

TEST(ExtendedActionSpaceTest, AddsSplitDvfsActions) {
  const ActionSpace space = ActionSpace::extended(4);
  EXPECT_EQ(space.size(), 16u);
  int perCoreActions = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (!space.action(i).perCore.empty()) {
      ++perCoreActions;
      EXPECT_EQ(space.action(i).perCore.size(), 4u);
    }
  }
  EXPECT_EQ(perCoreActions, 4);
}

TEST(ExtendedActionSpaceTest, ApplyInstallsPerCoreFrequencies) {
  platform::MachineConfig machineConfig;
  machineConfig.sensor.noiseSigma = 0.0;
  platform::Machine machine(machineConfig);
  workload::WorkloadDriver driver(machine, workload::Scenario::of({tinyApp2()}));
  const ActionSpace space = ActionSpace::extended(4);
  // The first split action: paired pattern, cores 0-1 at 3.4, 2-3 at 1.6.
  space.apply(12, machine, driver);
  const std::vector<Hertz> f = machine.coreFrequencies();
  EXPECT_DOUBLE_EQ(f[0], 3.4e9);
  EXPECT_DOUBLE_EQ(f[1], 3.4e9);
  EXPECT_DOUBLE_EQ(f[2], 1.6e9);
  EXPECT_DOUBLE_EQ(f[3], 1.6e9);
}

TEST(ExtendedActionSpaceTest, PerCoreToStringIsDescriptive) {
  const ActionSpace space = ActionSpace::extended(4);
  const std::string s = space.action(12).toString();
  EXPECT_NE(s.find("percore["), std::string::npos);
  EXPECT_NE(s.find("3.4GHz"), std::string::npos);
  EXPECT_NE(s.find("1.6GHz"), std::string::npos);
}

TEST(ExtendedActionSpaceTest, ManagerTrainsWithExtendedSpace) {
  platform::MachineConfig machineConfig;
  machineConfig.sensor.noiseSigma = 0.0;
  RunnerConfig runnerConfig;
  runnerConfig.machine = machineConfig;
  runnerConfig.analysisWarmup = 0.0;
  runnerConfig.analysisCooldown = 0.0;
  runnerConfig.maxSimTime = 200.0;
  PolicyRunner runner(runnerConfig);
  ThermalManagerConfig config;
  config.samplingInterval = 0.5;
  config.decisionEpoch = 2.0;
  ThermalManager manager(config, ActionSpace::extended(4));
  workload::AppSpec app = tinyApp2();
  app.iterations = 60;
  const RunResult result = runner.run(workload::Scenario::of({app}), manager);
  EXPECT_FALSE(result.timedOut);
  EXPECT_GT(manager.epochCount(), 3u);
}

}  // namespace
}  // namespace rltherm::core
