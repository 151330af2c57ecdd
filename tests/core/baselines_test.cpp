#include "core/baselines.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "workload/app_spec.hpp"
#include "workload/driver.hpp"

namespace rltherm::core {
namespace {

workload::AppSpec tinyApp(int iterations = 40) {
  workload::AppSpec spec;
  spec.name = "tiny";
  spec.family = "tiny";
  spec.threadCount = 4;
  spec.iterations = iterations;
  spec.burstWorkMean = 0.2;
  spec.burstWorkJitter = 0.0;
  spec.burstActivity = 0.8;
  spec.serialWork = 0.1;
  spec.serialActivity = 0.2;
  spec.performanceConstraint = 0.1;
  return spec;
}

RunnerConfig fastRunner() {
  RunnerConfig config;
  config.machine.sensor.noiseSigma = 0.0;
  config.analysisWarmup = 0.0;
  config.analysisCooldown = 0.0;
  config.maxSimTime = 400.0;
  return config;
}

TEST(StaticGovernorPolicyTest, InstallsGovernorAtStart) {
  platform::MachineConfig machineConfig;
  platform::Machine machine(machineConfig);
  workload::WorkloadDriver driver(machine, workload::Scenario::of({tinyApp()}));
  PolicyContext ctx{machine, driver};
  StaticGovernorPolicy policy({platform::GovernorKind::Powersave, 0.0});
  policy.onStart(ctx);
  EXPECT_EQ(machine.governorSetting().kind, platform::GovernorKind::Powersave);
  EXPECT_DOUBLE_EQ(policy.samplingInterval(), 0.0);  // never samples
}

TEST(StaticGovernorPolicyTest, DefaultNameFromSetting) {
  StaticGovernorPolicy policy({platform::GovernorKind::Ondemand, 0.0});
  EXPECT_EQ(policy.name(), "linux-ondemand");
  StaticGovernorPolicy named({platform::GovernorKind::Ondemand, 0.0}, "custom");
  EXPECT_EQ(named.name(), "custom");
}

TEST(FixedAffinityPolicyTest, PinsCurrentAppThreads) {
  platform::MachineConfig machineConfig;
  platform::Machine machine(machineConfig);
  workload::WorkloadDriver driver(machine, workload::Scenario::of({tinyApp(1000)}));
  PolicyContext ctx{machine, driver};

  const auto patterns = workload::standardPatterns(4);
  FixedAffinityPolicy policy(patterns[1], {platform::GovernorKind::Ondemand, 0.0});
  policy.onStart(ctx);
  const std::vector<ThreadId> ids = driver.app()->threadIds();
  EXPECT_EQ(machine.scheduler().thread(ids[0]).affinity, sched::AffinityMask::single(0));
  EXPECT_GT(policy.samplingInterval(), 0.0);  // re-asserts periodically
}

TEST(GeQiuPolicyTest, ControlsFrequencyThroughUserspaceGovernor) {
  GeQiuConfig config;
  config.interval = 0.5;
  GeQiuPolicy policy(config);
  PolicyRunner runner(fastRunner());
  const RunResult result = runner.run(workload::Scenario::of({tinyApp()}), policy);
  EXPECT_FALSE(result.timedOut);
  EXPECT_GT(result.duration, 0.0);
}

TEST(GeQiuPolicyTest, ReducesTemperatureVersusPerformanceGovernor) {
  PolicyRunner runner(fastRunner());
  StaticGovernorPolicy performance({platform::GovernorKind::Performance, 0.0});
  const RunResult perfResult =
      runner.run(workload::Scenario::of({tinyApp(300)}), performance);

  GeQiuConfig config;
  config.interval = 0.5;
  GeQiuPolicy ge(config);
  (void)runner.run(workload::Scenario::of({tinyApp(300)}), ge);  // learn
  const RunResult geResult = runner.run(workload::Scenario::of({tinyApp(300)}), ge);
  EXPECT_LT(geResult.reliability.averageTemp, perfResult.reliability.averageTemp);
}

TEST(GeQiuPolicyTest, PlainVariantIgnoresSwitchSignal) {
  GeQiuPolicy policy(GeQiuConfig{});
  EXPECT_FALSE(policy.wantsAppSwitchSignal());
  EXPECT_EQ(policy.name(), "ge-qiu");
}

TEST(GeQiuPolicyTest, ModifiedVariantResetsOnSwitchSignal) {
  GeQiuConfig config;
  config.interval = 0.5;
  GeQiuPolicy policy(config, /*explicitSwitchSignal=*/true);
  EXPECT_TRUE(policy.wantsAppSwitchSignal());
  EXPECT_EQ(policy.name(), "ge-qiu-modified");

  PolicyRunner runner(fastRunner());
  (void)runner.run(workload::Scenario::of({tinyApp(200)}), policy);
  // Q-table should contain learned (non-zero) entries now.
  double magnitude = 0.0;
  for (std::size_t s = 0; s < policy.qTable().stateCount(); ++s) {
    for (std::size_t a = 0; a < policy.qTable().actionCount(); ++a) {
      magnitude += std::abs(policy.qTable().value(s, a));
    }
  }
  EXPECT_GT(magnitude, 0.0);

  platform::MachineConfig machineConfig;
  platform::Machine machine(machineConfig);
  workload::WorkloadDriver driver(machine, workload::Scenario::of({tinyApp()}));
  PolicyContext ctx{machine, driver};
  policy.onAppSwitch(ctx);
  double afterReset = 0.0;
  for (std::size_t s = 0; s < policy.qTable().stateCount(); ++s) {
    for (std::size_t a = 0; a < policy.qTable().actionCount(); ++a) {
      afterReset += std::abs(policy.qTable().value(s, a));
    }
  }
  EXPECT_DOUBLE_EQ(afterReset, 0.0);
}

TEST(GeQiuPolicyTest, UnmodifiedVariantKeepsTableOnSwitchHook) {
  GeQiuConfig config;
  config.interval = 0.5;
  GeQiuPolicy policy(config, /*explicitSwitchSignal=*/false);
  PolicyRunner runner(fastRunner());
  (void)runner.run(workload::Scenario::of({tinyApp(200)}), policy);
  const std::vector<double> before = policy.qTable().snapshot();

  platform::MachineConfig machineConfig;
  platform::Machine machine(machineConfig);
  workload::WorkloadDriver driver(machine, workload::Scenario::of({tinyApp()}));
  PolicyContext ctx{machine, driver};
  policy.onAppSwitch(ctx);
  EXPECT_EQ(policy.qTable().snapshot(), before);
}

TEST(GeQiuPolicyTest, InvalidConfigRejected) {
  GeQiuConfig config;
  config.interval = 0.0;
  EXPECT_THROW(GeQiuPolicy{config}, PreconditionError);
}

}  // namespace
}  // namespace rltherm::core
