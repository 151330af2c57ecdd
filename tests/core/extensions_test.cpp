// Tests of the future-work extensions working through the core evaluation
// harness: concurrent applications (runConcurrent) and the adaptive
// sampling-interval controller.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/baselines.hpp"
#include "core/runner.hpp"
#include "core/thermal_manager.hpp"
#include "workload/app_spec.hpp"

namespace rltherm::core {
namespace {

workload::AppSpec tinyApp(const std::string& name, double activity = 0.8) {
  workload::AppSpec spec;
  spec.name = name;
  spec.family = name;
  spec.threadCount = 2;
  spec.iterations = 40;
  spec.burstWorkMean = 0.2;
  spec.burstWorkJitter = 0.0;
  spec.burstActivity = activity;
  spec.serialWork = 0.1;
  spec.serialActivity = 0.2;
  spec.performanceConstraint = 0.1;
  return spec;
}

RunnerConfig fastRunner() {
  RunnerConfig config;
  config.machine.sensor.noiseSigma = 0.0;
  config.machine.sensor.quantizationStep = 0.0;
  config.analysisWarmup = 0.0;
  config.analysisCooldown = 0.0;
  config.maxSimTime = 400.0;
  return config;
}

TEST(RunConcurrentTest, RunsForFixedWindowAndReportsSlots) {
  PolicyRunner runner(fastRunner());
  StaticGovernorPolicy policy({platform::GovernorKind::Ondemand, 0.0});
  const RunResult result =
      runner.runConcurrent({tinyApp("a"), tinyApp("b")}, policy, 30.0);
  EXPECT_NEAR(result.duration, 30.0, 0.05);
  EXPECT_FALSE(result.timedOut);
  ASSERT_EQ(result.completions.size(), 2u);
  EXPECT_GT(result.completions[0].iterations, 0);
  EXPECT_GT(result.completions[1].iterations, 0);
  EXPECT_EQ(result.scenarioName, "concurrent+a+b");
  EXPECT_EQ(result.coreTraces.size(), 4u);
  EXPECT_NEAR(static_cast<double>(result.coreTraces[0].size()), 30.0, 2.0);
}

TEST(RunConcurrentTest, ManagerControlsConcurrentWorkload) {
  PolicyRunner runner(fastRunner());
  ThermalManagerConfig config;
  config.samplingInterval = 0.5;
  config.decisionEpoch = 2.0;
  ThermalManager manager(config, ActionSpace::standard(4));
  const RunResult result =
      runner.runConcurrent({tinyApp("a", 1.0), tinyApp("b", 0.4)}, manager, 60.0);
  EXPECT_GT(manager.epochCount(), 10u);
  EXPECT_GT(result.completions[0].iterations, 0);
}

TEST(RunConcurrentTest, ConcurrentLoadIsHotterThanSingleApp) {
  PolicyRunner runner(fastRunner());
  StaticGovernorPolicy a({platform::GovernorKind::Performance, 0.0});
  StaticGovernorPolicy b({platform::GovernorKind::Performance, 0.0});
  const RunResult single = runner.runConcurrent({tinyApp("a", 1.0)}, a, 40.0);
  const RunResult dual = runner.runConcurrent(
      {tinyApp("a", 1.0), tinyApp("b", 1.0), tinyApp("c", 1.0)}, b, 40.0);
  EXPECT_GT(dual.reliability.averageTemp, single.reliability.averageTemp);
}

TEST(RunConcurrentTest, InvalidDurationRejected) {
  PolicyRunner runner(fastRunner());
  StaticGovernorPolicy policy({platform::GovernorKind::Ondemand, 0.0});
  EXPECT_THROW((void)runner.runConcurrent({tinyApp("a")}, policy, 0.0),
               PreconditionError);
}

TEST(RunConcurrentTest, ReplicationRejected) {
  // Concurrent mode does not replicate; a replication plan must fail
  // loudly instead of being ignored.
  RunnerConfig config = fastRunner();
  config.replication = workload::ReplicationPlan{};
  PolicyRunner runner(config);
  StaticGovernorPolicy policy({platform::GovernorKind::Ondemand, 0.0});
  try {
    (void)runner.runConcurrent({tinyApp("a")}, policy, 10.0);
    FAIL() << "runConcurrent accepted a replication plan";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("replication"), std::string::npos)
        << error.what();
  }
}

TEST(AdaptiveSamplingTest, DisabledKeepsFixedInterval) {
  PolicyRunner runner(fastRunner());
  ThermalManagerConfig config;
  config.samplingInterval = 0.5;
  config.decisionEpoch = 2.0;
  ThermalManager manager(config, ActionSpace::standard(4));
  (void)runner.run(workload::Scenario::of({tinyApp("a")}), manager);
  EXPECT_DOUBLE_EQ(manager.samplingInterval(), 0.5);
}

TEST(AdaptiveSamplingTest, StretchesOnSmoothTemperature) {
  // A continuous steady workload under a CONSTANT action (frozen agent) has
  // a flat, maximally redundant thermal profile: the sampling interval must
  // stretch toward its maximum. (A live learner keeps perturbing the
  // profile with its own decisions, so the mechanism is tested in the
  // frozen regime where the signal is genuinely smooth.)
  RunnerConfig runnerConfig = fastRunner();
  runnerConfig.maxSimTime = 900.0;
  PolicyRunner runner(runnerConfig);
  ThermalManagerConfig config;
  config.samplingInterval = 1.0;
  config.decisionEpoch = 12.0;
  config.adaptiveSampling = true;
  config.minSamplingInterval = 0.5;
  config.maxSamplingInterval = 4.0;
  ThermalManager manager(config, ActionSpace::standard(4));
  workload::AppSpec smooth = tinyApp("smooth", 0.9);
  smooth.threadCount = 4;   // one per core: no balancer-induced wander
  smooth.iterations = 3000;
  smooth.serialWork = 0.0;  // continuous load, no alternation
  manager.freeze();  // constant greedy action from the optimistic prior
  (void)runner.run(workload::Scenario::of({smooth}), manager);
  EXPECT_GT(manager.samplingInterval(), 1.0);
  EXPECT_LE(manager.samplingInterval(), 4.0);
}

TEST(AdaptiveSamplingTest, IntervalStaysWithinBounds) {
  PolicyRunner runner(fastRunner());
  ThermalManagerConfig config;
  config.samplingInterval = 1.0;
  config.decisionEpoch = 8.0;
  config.adaptiveSampling = true;
  config.minSamplingInterval = 0.5;
  config.maxSamplingInterval = 2.0;
  ThermalManager manager(config, ActionSpace::standard(4));
  (void)runner.run(workload::Scenario::of({tinyApp("a")}), manager);
  EXPECT_GE(manager.samplingInterval(), 0.5);
  EXPECT_LE(manager.samplingInterval(), 2.0);
}

TEST(AdaptiveSamplingTest, InvalidConfigRejected) {
  ThermalManagerConfig config;
  config.adaptiveSampling = true;
  config.minSamplingInterval = 5.0;
  config.maxSamplingInterval = 1.0;
  EXPECT_THROW(ThermalManager(config, ActionSpace::standard(4)), PreconditionError);
}

TEST(HeteroIntegrationTest, ManagerRunsOnBigLittleMachine) {
  RunnerConfig config = fastRunner();
  config.machine.coreTypes = platform::bigLittleCoreTypes();
  PolicyRunner runner(config);
  ThermalManagerConfig managerConfig;
  managerConfig.samplingInterval = 0.5;
  managerConfig.decisionEpoch = 2.0;
  ThermalManager manager(managerConfig, ActionSpace::standard(4));
  const RunResult result = runner.run(workload::Scenario::of({tinyApp("a")}), manager);
  EXPECT_FALSE(result.timedOut);
  EXPECT_GT(manager.epochCount(), 2u);
}

TEST(HeteroIntegrationTest, BigLittleRunsCoolerThanHomogeneousUnderLoad) {
  RunnerConfig hetero = fastRunner();
  hetero.machine.coreTypes = platform::bigLittleCoreTypes();
  RunnerConfig homo = fastRunner();
  StaticGovernorPolicy a({platform::GovernorKind::Performance, 0.0});
  StaticGovernorPolicy b({platform::GovernorKind::Performance, 0.0});
  workload::AppSpec app = tinyApp("hot", 1.0);
  app.threadCount = 4;
  app.iterations = 200;
  const RunResult heteroResult =
      PolicyRunner(hetero).run(workload::Scenario::of({app}), a);
  const RunResult homoResult =
      PolicyRunner(homo).run(workload::Scenario::of({app}), b);
  EXPECT_LT(heteroResult.reliability.averageTemp, homoResult.reliability.averageTemp);
  // ... at the cost of throughput (little cores are slower).
  EXPECT_GT(heteroResult.duration, homoResult.duration);
}

}  // namespace
}  // namespace rltherm::core
