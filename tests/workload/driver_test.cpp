#include "workload/driver.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rltherm::workload {
namespace {

platform::MachineConfig quietMachine() {
  platform::MachineConfig config;
  config.sensor.noiseSigma = 0.0;
  config.sensor.quantizationStep = 0.0;
  return config;
}

AppSpec tinyApp(const std::string& name, int iterations = 3) {
  AppSpec spec;
  spec.name = name;
  spec.family = name;
  spec.threadCount = 4;
  spec.iterations = iterations;
  spec.sync = SyncStyle::Barrier;
  spec.burstWorkMean = 0.05;
  spec.burstWorkJitter = 0.0;
  spec.burstActivity = 0.8;
  spec.serialWork = 0.02;
  spec.serialActivity = 0.2;
  spec.performanceConstraint = 0.5;
  return spec;
}

TEST(ScenarioTest, NameFromFamilies) {
  const Scenario s = Scenario::of({tinyApp("a"), tinyApp("b"), tinyApp("c")});
  EXPECT_EQ(s.name, "a-b-c");
  EXPECT_EQ(s.apps.size(), 3u);
}

TEST(ScenarioTest, EmptyRejected) {
  EXPECT_THROW(Scenario::of({}), PreconditionError);
}

TEST(WorkloadDriverTest, RunsScenarioToCompletion) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, Scenario::of({tinyApp("a")}));
  int safety = 200000;
  while (driver.tick() && --safety > 0) {
  }
  ASSERT_GT(safety, 0) << "driver did not terminate";
  EXPECT_TRUE(driver.done());
  ASSERT_EQ(driver.completions().size(), 1u);
  EXPECT_EQ(driver.completions()[0].iterations, 3);
  EXPECT_GT(driver.completions()[0].executionTime(), 0.0);
}

TEST(WorkloadDriverTest, BackToBackAppsRunInOrder) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, Scenario::of({tinyApp("a"), tinyApp("b")}));
  int switches = 0;
  int safety = 400000;
  while (driver.tick() && --safety > 0) {
    if (driver.appJustSwitched()) ++switches;
  }
  ASSERT_GT(safety, 0);
  EXPECT_EQ(switches, 1);
  ASSERT_EQ(driver.completions().size(), 2u);
  EXPECT_EQ(driver.completions()[0].name, "a");
  EXPECT_EQ(driver.completions()[1].name, "b");
  EXPECT_GE(driver.completions()[1].startTime, driver.completions()[0].endTime);
}

TEST(WorkloadDriverTest, InitialAppIsNotASwitch) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, Scenario::of({tinyApp("a")}));
  EXPECT_FALSE(driver.appJustSwitched());
  (void)driver.tick();
  EXPECT_FALSE(driver.appJustSwitched());
}

TEST(WorkloadDriverTest, PerformanceConstraintTracksCurrentApp) {
  platform::Machine machine(quietMachine());
  AppSpec a = tinyApp("a");
  a.performanceConstraint = 0.7;
  WorkloadDriver driver(machine, Scenario::of({a}));
  EXPECT_DOUBLE_EQ(driver.spec(0).performanceConstraint, 0.7);
}

TEST(WorkloadDriverTest, ThroughputBecomesPositive) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, Scenario::of({tinyApp("a", 500)}));
  // Tick until a few iterations completed, then the sliding-window
  // throughput must be positive (it resets when the app finishes).
  int safety = 200000;
  while (driver.app() != nullptr && driver.app()->iterationsCompleted() < 5 &&
         --safety > 0) {
    (void)driver.tick();
  }
  ASSERT_GT(safety, 0);
  EXPECT_GT(driver.throughput(), 0.0);
}

TEST(WorkloadDriverTest, AffinityPatternPinsThreads) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, Scenario::of({tinyApp("a", 100)}));
  const std::vector<sched::AffinityMask> pattern = {
      sched::AffinityMask::single(0), sched::AffinityMask::single(1)};
  driver.applyAffinityPattern(pattern);
  const RunningApp* app = driver.app();
  ASSERT_NE(app, nullptr);
  const std::vector<ThreadId> ids = app->threadIds();
  // Pattern repeats mod its size over thread slots.
  EXPECT_EQ(machine.scheduler().thread(ids[0]).affinity, sched::AffinityMask::single(0));
  EXPECT_EQ(machine.scheduler().thread(ids[1]).affinity, sched::AffinityMask::single(1));
  EXPECT_EQ(machine.scheduler().thread(ids[2]).affinity, sched::AffinityMask::single(0));
}

TEST(WorkloadDriverTest, EmptyPatternRestoresFullAffinity) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, Scenario::of({tinyApp("a", 100)}));
  driver.applyAffinityPattern(
      std::vector<sched::AffinityMask>{sched::AffinityMask::single(0)});
  driver.applyAffinityPattern({});
  const std::vector<ThreadId> ids = driver.app()->threadIds();
  EXPECT_EQ(machine.scheduler().thread(ids[0]).affinity,
            sched::AffinityMask::all(machine.coreCount()));
}

TEST(WorkloadDriverTest, TickAfterDoneIsIdleNoCrash) {
  platform::Machine machine(quietMachine());
  WorkloadDriver driver(machine, Scenario::of({tinyApp("a", 1)}));
  int safety = 100000;
  while (driver.tick() && --safety > 0) {
  }
  const Seconds t = machine.now();
  EXPECT_FALSE(driver.tick());
  EXPECT_GT(machine.now(), t);  // machine still advances (idle cooldown)
}

TEST(WorkloadDriverTest, RejectsAppsWiderThanTheThreadIdStride) {
  // Thread ids give each replica a stride of 100, so an app may have at
  // most 100 threads.
  platform::Machine machine(quietMachine());
  AppSpec wide = tinyApp("wide");
  wide.threadCount = 101;
  EXPECT_THROW(WorkloadDriver(machine, Scenario::of({wide})), PreconditionError);
  wide.threadCount = 100;
  EXPECT_NO_THROW(WorkloadDriver(machine, Scenario::of({wide})));
}

TEST(StandardPatternsTest, CatalogueShape) {
  const std::vector<AffinityPattern> patterns = standardPatterns(4);
  ASSERT_EQ(patterns.size(), 5u);
  EXPECT_EQ(patterns[0].name, "free");
  EXPECT_TRUE(patterns[0].masks.empty());
  EXPECT_EQ(patterns[1].name, "paired");
  ASSERT_EQ(patterns[1].masks.size(), 6u);
  // paired: {0,0,1,1,2,3}
  EXPECT_EQ(patterns[1].masks[0], sched::AffinityMask::single(0));
  EXPECT_EQ(patterns[1].masks[5], sched::AffinityMask::single(3));
  EXPECT_EQ(patterns[2].name, "spread");
  EXPECT_EQ(patterns[2].masks[3], sched::AffinityMask::single(3));
}

TEST(StandardPatternsTest, WrapsOnFewerCores) {
  const std::vector<AffinityPattern> patterns = standardPatterns(2);
  for (const auto& pattern : patterns) {
    for (const auto& mask : pattern.masks) {
      EXPECT_EQ(mask.bits() & ~sched::AffinityMask::all(2).bits(), 0u) << mask.toString();
    }
  }
}

}  // namespace
}  // namespace rltherm::workload
