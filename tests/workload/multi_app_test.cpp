// Concurrent mode of the workload driver: every app in its own slot,
// running at once, optionally restarting when it finishes (server mode).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "workload/driver.hpp"

namespace rltherm::workload {
namespace {

platform::MachineConfig quietMachine() {
  platform::MachineConfig config;
  config.sensor.noiseSigma = 0.0;
  config.sensor.quantizationStep = 0.0;
  return config;
}

AppSpec tinyApp(const std::string& name, int iterations = 5, double pc = 0.5) {
  AppSpec spec;
  spec.name = name;
  spec.family = name;
  spec.threadCount = 2;
  spec.iterations = iterations;
  spec.sync = SyncStyle::Barrier;
  spec.burstWorkMean = 0.05;
  spec.burstWorkJitter = 0.0;
  spec.burstActivity = 0.8;
  spec.serialWork = 0.02;
  spec.serialActivity = 0.2;
  spec.performanceConstraint = pc;
  return spec;
}

TEST(MultiAppDriverTest, RunsAppsConcurrentlyToCompletion) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, {tinyApp("a"), tinyApp("b")}, /*restartFinished=*/false);
  EXPECT_EQ(machine.scheduler().threadCount(), 4u);  // both apps' threads live
  int safety = 200000;
  while (driver.tick() && --safety > 0) {
  }
  ASSERT_GT(safety, 0);
  EXPECT_TRUE(driver.done());
  EXPECT_EQ(driver.runs(0), 1);
  EXPECT_EQ(driver.runs(1), 1);
  EXPECT_EQ(driver.totalIterations(0), 5);
}

TEST(MultiAppDriverTest, AppsProgressSimultaneously) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, {tinyApp("a", 1000), tinyApp("b", 1000)},
                        /*restartFinished=*/false);
  for (int i = 0; i < 3000; ++i) (void)driver.tick();
  EXPECT_GT(driver.totalIterations(0), 0);
  EXPECT_GT(driver.totalIterations(1), 0);
  EXPECT_FALSE(driver.done());
}

TEST(MultiAppDriverTest, RestartModeRespawnsFinishedApps) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, {tinyApp("a", 2)}, /*restartFinished=*/true);
  bool sawSwitch = false;
  for (int i = 0; i < 60000 && driver.runs(0) < 3; ++i) {
    (void)driver.tick();
    sawSwitch = sawSwitch || driver.appJustSwitched();
  }
  EXPECT_GE(driver.runs(0), 3);
  EXPECT_TRUE(sawSwitch);
  EXPECT_FALSE(driver.done());  // server mode never completes
}

TEST(MultiAppDriverTest, TotalIterationsAccumulateAcrossRestarts) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, {tinyApp("a", 2)}, /*restartFinished=*/true);
  for (int i = 0; i < 60000 && driver.runs(0) < 2; ++i) (void)driver.tick();
  EXPECT_GE(driver.totalIterations(0), 4);  // 2 completions x 2 iterations
}

TEST(MultiAppDriverTest, PerformanceRatioIsWorstApp) {
  platform::Machine machine(quietMachine());
  // App b has an absurd constraint it can never meet; the aggregate ratio
  // must reflect it (the worst app).
  WorkloadDriver driver(machine, {tinyApp("a", 4000, 0.01), tinyApp("b", 4000, 1e9)},
                        /*restartFinished=*/false);
  for (int i = 0; i < 5000; ++i) (void)driver.tick();
  EXPECT_LT(driver.performanceRatio(), 0.001);
}

TEST(MultiAppDriverTest, PerformanceRatioOneWhenCold) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, {tinyApp("a", 1000)}, /*restartFinished=*/false);
  EXPECT_DOUBLE_EQ(driver.performanceRatio(), 1.0);
}

TEST(MultiAppDriverTest, AffinityPatternStaggersApps) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, {tinyApp("a", 1000), tinyApp("b", 1000)},
                        /*restartFinished=*/false);
  const std::vector<sched::AffinityMask> pattern = {sched::AffinityMask::single(0),
                                                    sched::AffinityMask::single(1)};
  driver.applyAffinityPattern(pattern);
  // App 0 (offset 0): slots 0,1 -> cores 0,1. App 1 (offset 1): slots -> 1,0.
  const std::vector<ThreadId> a = driver.app(0)->threadIds();
  const std::vector<ThreadId> b = driver.app(1)->threadIds();
  EXPECT_EQ(machine.scheduler().thread(a[0]).affinity, sched::AffinityMask::single(0));
  EXPECT_EQ(machine.scheduler().thread(a[1]).affinity, sched::AffinityMask::single(1));
  EXPECT_EQ(machine.scheduler().thread(b[0]).affinity, sched::AffinityMask::single(1));
  EXPECT_EQ(machine.scheduler().thread(b[1]).affinity, sched::AffinityMask::single(0));
}

TEST(MultiAppDriverTest, RestartedAppInheritsCurrentPattern) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, {tinyApp("a", 1)}, /*restartFinished=*/true);
  driver.applyAffinityPattern(std::vector<sched::AffinityMask>{sched::AffinityMask::single(2)});
  const int before = driver.runs(0);
  for (int i = 0; i < 60000 && driver.runs(0) == before; ++i) (void)driver.tick();
  (void)driver.tick();  // respawn happens on the tick after completion
  ASSERT_NE(driver.app(0), nullptr);
  const std::vector<ThreadId> ids = driver.app(0)->threadIds();
  EXPECT_EQ(machine.scheduler().thread(ids[0]).affinity, sched::AffinityMask::single(2));
}

TEST(MultiAppDriverTest, RestartedAppKeepsItsSlotRotation) {
  // A restart must land where applyAffinityPattern puts the slot's threads:
  // slot 0 with pattern {core 0, core 1} runs its threads on (0, 1).
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, {tinyApp("a", 1)}, /*restartFinished=*/true);
  const std::vector<sched::AffinityMask> pattern = {sched::AffinityMask::single(0),
                                                    sched::AffinityMask::single(1)};
  driver.applyAffinityPattern(pattern);
  for (int i = 0; i < 60000 && driver.runs(0) == 0; ++i) (void)driver.tick();
  ASSERT_EQ(driver.runs(0), 1);
  (void)driver.tick();  // the restart
  ASSERT_NE(driver.app(0), nullptr);
  const std::vector<ThreadId> ids = driver.app(0)->threadIds();
  EXPECT_EQ(machine.scheduler().thread(ids[0]).affinity, sched::AffinityMask::single(0));
  EXPECT_EQ(machine.scheduler().thread(ids[1]).affinity, sched::AffinityMask::single(1));
}

TEST(MultiAppDriverTest, RestartSignalsOneSwitch) {
  // The switch signal fires when the next instance starts, not also on the
  // tick the previous one finished.
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, {tinyApp("a", 2)}, /*restartFinished=*/true);
  int switches = 0;
  for (int i = 0; i < 60000 && driver.runs(0) < 3; ++i) {
    (void)driver.tick();
    if (driver.appJustSwitched()) {
      ++switches;
      EXPECT_NE(driver.app(0), nullptr) << "switch signalled without a new instance";
    }
  }
  ASSERT_EQ(driver.runs(0), 3);
  EXPECT_FALSE(driver.appJustSwitched());  // the third finish tick
  EXPECT_EQ(switches, 2);                  // the two restarts before it
}

TEST(MultiAppDriverTest, EmptyAppListRejected) {
  platform::Machine machine(quietMachine());
  EXPECT_THROW(WorkloadDriver(machine, std::vector<AppSpec>{}, /*restartFinished=*/false),
               PreconditionError);
}

TEST(MultiAppDriverTest, AccessorsValidateIndex) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, {tinyApp("a")}, /*restartFinished=*/false);
  EXPECT_THROW((void)driver.app(1), PreconditionError);
  EXPECT_THROW((void)driver.runs(1), PreconditionError);
  EXPECT_THROW((void)driver.throughput(1), PreconditionError);
}

}  // namespace
}  // namespace rltherm::workload
