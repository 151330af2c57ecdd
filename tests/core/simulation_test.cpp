// Resumability of the closed loop: a Simulation advanced in 40 s slices
// must produce the RunResult of the same run advanced in one call (what
// PolicyRunner::run does), bit for bit — for a plain run, for runs replaying
// the shipped fault scenarios, and for a replicated run.
#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/thermal_manager.hpp"
#include "fault/plan.hpp"
#include "workload/app_spec.hpp"
#include "workload/driver.hpp"

#ifndef RLTHERM_REPO_ROOT
#error "RLTHERM_REPO_ROOT must point at the source tree (set in tests/CMakeLists.txt)"
#endif

namespace rltherm::core {
namespace {

constexpr Seconds kSlice = 40.0;

RunnerConfig runnerConfig() {
  RunnerConfig config;
  config.analysisWarmup = 0.0;
  config.analysisCooldown = 0.0;
  config.maxSimTime = 650.0;
  return config;
}

ThermalManager freshManager() {
  ThermalManagerConfig config;
  config.samplingInterval = 0.5;
  config.decisionEpoch = 2.0;
  return ThermalManager(config, ActionSpace::standard(4));
}

workload::Scenario scenario() {
  return workload::Scenario::of(
      {workload::makeApp("mpeg_dec", 1), workload::makeApp("tachyon", 1)});
}

RunResult slicedRun(const RunnerConfig& config, ThermalPolicy& policy) {
  Simulation sim(config, /*trace=*/true, policy, scenario());
  for (Seconds limit = kSlice; sim.running() && sim.now() < config.maxSimTime;
       limit += kSlice) {
    sim.advanceTo(std::min(limit, config.maxSimTime));
  }
  return sim.finish();
}

auto faultStatsOf(const fault::FaultStats& s) {
  return std::make_tuple(s.sensorFaultsApplied, s.sensorFaultsCleared, s.samplesDropped,
                         s.samplesDelayed, s.dvfsIgnored, s.dvfsDeferred, s.dvfsPartial,
                         s.affinityDropped, s.coresRetired, s.coreOfflines,
                         s.coreOnlines);
}

void expectIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.policyName, b.policyName);
  EXPECT_EQ(a.scenarioName, b.scenarioName);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.timedOut, b.timedOut);
  EXPECT_EQ(a.coreTraces, b.coreTraces);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].name, b.completions[i].name);
    EXPECT_EQ(a.completions[i].startTime, b.completions[i].startTime);
    EXPECT_EQ(a.completions[i].endTime, b.completions[i].endTime);
    EXPECT_EQ(a.completions[i].iterations, b.completions[i].iterations);
  }
  EXPECT_EQ(a.reliability.averageTemp, b.reliability.averageTemp);
  EXPECT_EQ(a.reliability.peakTemp, b.reliability.peakTemp);
  EXPECT_EQ(a.reliability.agingMttfYears, b.reliability.agingMttfYears);
  EXPECT_EQ(a.reliability.cyclingMttfYears, b.reliability.cyclingMttfYears);
  EXPECT_EQ(a.dynamicEnergy, b.dynamicEnergy);
  EXPECT_EQ(a.staticEnergy, b.staticEnergy);
  EXPECT_EQ(a.averageTotalPower, b.averageTotalPower);
  EXPECT_EQ(a.counters.instructions, b.counters.instructions);
  EXPECT_EQ(a.counters.cacheMisses, b.counters.cacheMisses);
  EXPECT_EQ(a.counters.pageFaults, b.counters.pageFaults);
  EXPECT_EQ(a.counters.migrations, b.counters.migrations);
  EXPECT_EQ(faultStatsOf(a.faultStats), faultStatsOf(b.faultStats));
  EXPECT_EQ(a.deliveredIterations, b.deliveredIterations);
  EXPECT_EQ(a.taintedIterations, b.taintedIterations);
  EXPECT_EQ(a.finalDeliveredRatio, b.finalDeliveredRatio);
}

TEST(SimulationTest, SlicedAdvanceEqualsOneShot) {
  {
    SCOPED_TRACE("plain");
    const RunnerConfig config = runnerConfig();
    ThermalManager oneShot = freshManager();
    ThermalManager sliced = freshManager();
    const RunResult expected = PolicyRunner(config).run(scenario(), oneShot);
    ASSERT_GT(expected.duration, 4 * kSlice);  // vacuity: many slice boundaries
    expectIdentical(slicedRun(config, sliced), expected);
    EXPECT_EQ(sliced.epochCount(), oneShot.epochCount());
  }
  for (const char* plan : {"combined_storm.toml", "sample_loss.toml"}) {
    SCOPED_TRACE(plan);
    RunnerConfig config = runnerConfig();
    config.faults =
        fault::FaultPlan::fromFile(std::string(RLTHERM_REPO_ROOT) + "/scenarios/" + plan);
    ThermalManager oneShot = freshManager();
    ThermalManager sliced = freshManager();
    const RunResult expected = PolicyRunner(config).run(scenario(), oneShot);
    // Vacuity: the plan actually fired inside the window.
    const fault::FaultStats& fired = expected.faultStats;
    EXPECT_GT(fired.sensorFaultsApplied + fired.samplesDropped, 0u);
    expectIdentical(slicedRun(config, sliced), expected);
  }
  {
    SCOPED_TRACE("replicated");
    RunnerConfig config = runnerConfig();
    config.replication = workload::ReplicationPlan{.initialDegree = 2};
    ThermalManager oneShot = freshManager();
    ThermalManager sliced = freshManager();
    const RunResult expected = PolicyRunner(config).run(scenario(), oneShot);
    EXPECT_GT(expected.deliveredIterations, 0);
    expectIdentical(slicedRun(config, sliced), expected);
  }
}

}  // namespace
}  // namespace rltherm::core
