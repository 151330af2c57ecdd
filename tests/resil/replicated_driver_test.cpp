// Replicated mode of the workload driver: merge policies, delivered-work
// accounting (credit vs taint), degree changes at group boundaries, and the
// avoid-mask steering that moves running replicas off suspect cores
// immediately.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "platform/machine.hpp"
#include "workload/app_spec.hpp"
#include "workload/control.hpp"
#include "workload/driver.hpp"

namespace rltherm::workload {
namespace {

AppSpec tinyApp(int iterations = 40, int threads = 1) {
  AppSpec spec;
  spec.name = "tiny";
  spec.family = "tiny";
  spec.threadCount = threads;
  spec.iterations = iterations;
  spec.burstWorkMean = 0.2;
  spec.burstWorkJitter = 0.1;
  spec.burstActivity = 0.9;
  spec.serialWork = 0.05;
  spec.serialActivity = 0.2;
  spec.performanceConstraint = 0.1;
  return spec;
}

platform::Machine quietMachine() {
  platform::MachineConfig config;
  config.sensor.noiseSigma = 0.0;
  config.sensor.quantizationStep = 0.0;
  return platform::Machine(config);
}

/// Run the driver to completion (bounded so a regression cannot hang ctest).
void drain(WorkloadDriver& driver, std::size_t maxTicks = 4'000'000) {
  std::size_t ticks = 0;
  while (driver.tick()) {
    ASSERT_LT(++ticks, maxTicks) << "driver did not finish";
  }
}

TEST(ReplicationPlanTest, ValidateRejectsOutOfRangeDegrees) {
  ReplicationPlan plan;
  plan.maxDegree = 4;
  EXPECT_THROW(plan.validate(), PreconditionError);
  plan.maxDegree = 3;
  plan.initialDegree = 0;
  EXPECT_THROW(plan.validate(), PreconditionError);
  plan.initialDegree = 3;
  EXPECT_NO_THROW(plan.validate());
}

TEST(ReplicationPlanTest, QuorumMatchesMergePolicy) {
  ReplicationPlan first{.merge = MergePolicy::FirstFinisher};
  EXPECT_EQ(first.quorum(1), 1);
  EXPECT_EQ(first.quorum(3), 1);
  ReplicationPlan vote{.merge = MergePolicy::MajorityVote};
  EXPECT_EQ(vote.quorum(1), 1);
  EXPECT_EQ(vote.quorum(2), 2);
  EXPECT_EQ(vote.quorum(3), 2);
}

TEST(ReplicatedDriverTest, FaultFreeRatioIsOneAtAnyDegree) {
  for (const int degree : {1, 2, 3}) {
    platform::Machine machine = quietMachine();
    WorkloadDriver driver(machine, Scenario::of({tinyApp()}),
                            ReplicationPlan{.initialDegree = degree});
    drain(driver);
    EXPECT_EQ(driver.taintedIterations(), 0) << "degree " << degree;
    EXPECT_DOUBLE_EQ(driver.deliveredWorkRatio(), 1.0) << "degree " << degree;
    ASSERT_EQ(driver.completions().size(), 1u) << "degree " << degree;
    // The merged delivered count is the full app — replication has no
    // inherent accounting penalty.
    EXPECT_EQ(driver.completions()[0].iterations, 40) << "degree " << degree;
    EXPECT_EQ(driver.deliveredIterations(), 40) << "degree " << degree;
  }
}

TEST(ReplicatedDriverTest, DegreeOneMatchesThePlainDriverCompletions) {
  platform::Machine replicated = quietMachine();
  WorkloadDriver driver(replicated, Scenario::of({tinyApp(), tinyApp(25)}),
                          ReplicationPlan{.initialDegree = 1});
  drain(driver);

  platform::Machine plainMachine = quietMachine();
  WorkloadDriver plain(plainMachine, Scenario::of({tinyApp(), tinyApp(25)}));
  std::size_t guard = 0;
  while (plain.tick()) ASSERT_LT(++guard, 4'000'000u);

  ASSERT_EQ(driver.completions().size(), plain.completions().size());
  for (std::size_t i = 0; i < plain.completions().size(); ++i) {
    EXPECT_EQ(driver.completions()[i].iterations, plain.completions()[i].iterations);
  }
}

TEST(ReplicatedDriverTest, CoreDeathTaintsOnlyReplicasTouchingTheDeadCore) {
  platform::Machine machine = quietMachine();
  // Pin the single replica's thread footprint: degree 2, replicas rotate
  // across the free pattern, so both replicas run somewhere among the cores.
  WorkloadDriver driver(machine, Scenario::of({tinyApp(200)}),
                          ReplicationPlan{.initialDegree = 2});

  // Let the group make progress, then retire core 0 (every replica of a
  // 1-thread app may or may not be there; taint only replicas that touched
  // it in flight).
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(driver.tick());
  const std::int64_t taintedBefore = driver.taintedIterations();
  std::int64_t creditedBefore = driver.deliveredIterations();
  machine.setCoreOnline(0, false);
  for (int i = 0; i < 4000; ++i) {
    if (!driver.tick()) break;
  }
  // The run continues on surviving cores and keeps delivering credited work.
  EXPECT_GT(driver.deliveredIterations(), creditedBefore);
  // Taint is bounded: at most one in-flight iteration per replica per edge.
  EXPECT_LE(driver.taintedIterations() - taintedBefore, 2);
  EXPECT_GE(driver.taintedIterations(), taintedBefore);
}

TEST(ReplicatedDriverTest, RecoveryTaintsNothing) {
  platform::Machine machine = quietMachine();
  WorkloadDriver driver(machine, Scenario::of({tinyApp(300)}),
                          ReplicationPlan{.initialDegree = 1});
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(driver.tick());
  machine.setCoreOnline(2, false);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(driver.tick());
  const std::int64_t taintedAfterDeath = driver.taintedIterations();
  machine.setCoreOnline(2, true);
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(driver.tick());
  // Coming back online never taints; only the offline edge does.
  EXPECT_EQ(driver.taintedIterations(), taintedAfterDeath);
}

TEST(ReplicatedDriverTest, DegreeChangeTakesEffectAtTheNextGroupBoundary) {
  platform::Machine machine = quietMachine();
  WorkloadDriver driver(machine, Scenario::of({tinyApp(15), tinyApp(15)}),
                          ReplicationPlan{.initialDegree = 1, .maxDegree = 3});
  ASSERT_EQ(driver.currentDegree(), 1);
  driver.applyReplication(ReplicationRequest{.degree = 3});
  // The live group keeps its degree; the request is pending.
  EXPECT_EQ(driver.currentDegree(), 1);
  // Run until the second group starts (appJustSwitched flags the boundary).
  std::size_t guard = 0;
  while (!driver.appJustSwitched()) {
    ASSERT_TRUE(driver.tick());
    ASSERT_LT(++guard, 4'000'000u);
  }
  EXPECT_EQ(driver.currentDegree(), 3);
  drain(driver);
  EXPECT_EQ(driver.completions().size(), 2u);
}

TEST(ReplicatedDriverTest, DegreeRequestsAreClampedToThePlanCeiling) {
  platform::Machine machine = quietMachine();
  WorkloadDriver driver(machine, Scenario::of({tinyApp(10), tinyApp(10)}),
                          ReplicationPlan{.initialDegree = 1, .maxDegree = 2});
  driver.applyReplication(ReplicationRequest{.degree = 3});
  std::size_t guard = 0;
  while (!driver.appJustSwitched()) {
    ASSERT_TRUE(driver.tick());
    ASSERT_LT(++guard, 4'000'000u);
  }
  EXPECT_EQ(driver.currentDegree(), 2);
  drain(driver);
}

TEST(ReplicatedDriverTest, AvoidMaskSteersRunningReplicasImmediately) {
  platform::Machine machine = quietMachine();
  WorkloadDriver driver(machine, Scenario::of({tinyApp(400, 2)}),
                          ReplicationPlan{.initialDegree = 2});
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(driver.tick());

  // Steer everything away from cores 0 and 1 while the group is running.
  driver.applyReplication(ReplicationRequest{
      .degree = 2,
      .avoid = sched::AffinityMask::of({CoreId{0}, CoreId{1}}),
  });
  // After the steer, the avoided cores must host no replica threads: the
  // setAffinity path migrates them off immediately.
  for (int i = 0; i < 1000; ++i) {
    if (!driver.tick()) break;
    EXPECT_TRUE(machine.scheduler().threadsOnCore(CoreId{0}).empty()) << "tick " << i;
    EXPECT_TRUE(machine.scheduler().threadsOnCore(CoreId{1}).empty()) << "tick " << i;
  }
}

TEST(ReplicatedDriverTest, MajorityVoteWaitsForTheQuorum) {
  platform::Machine machine = quietMachine();
  WorkloadDriver driver(
      machine, Scenario::of({tinyApp(30)}),
      ReplicationPlan{.merge = MergePolicy::MajorityVote, .initialDegree = 3});
  drain(driver);
  ASSERT_EQ(driver.completions().size(), 1u);
  // Fault-free every replica delivers the full app; the majority rank equals
  // the full count.
  EXPECT_EQ(driver.completions()[0].iterations, 30);
  EXPECT_DOUBLE_EQ(driver.deliveredWorkRatio(), 1.0);
}

TEST(ReplicatedDriverTest, ReplaysBitIdentically) {
  const auto runOnce = [] {
    platform::Machine machine = quietMachine();
    WorkloadDriver driver(machine, Scenario::of({tinyApp(60)}),
                            ReplicationPlan{.initialDegree = 2});
    std::size_t ticks = 0;
    for (; driver.tick(); ++ticks) {
      if (ticks == 1500) machine.setCoreOnline(1, false);
    }
    return std::tuple(driver.deliveredIterations(), driver.taintedIterations(),
                      driver.completions().size(), machine.now());
  };
  EXPECT_EQ(runOnce(), runOnce());
}

}  // namespace
}  // namespace rltherm::workload
