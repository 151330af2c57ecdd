#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace rltherm::sched {
namespace {

SchedulerConfig twoCores() {
  SchedulerConfig config;
  config.coreCount = 2;
  return config;
}

TEST(SchedulerTest, AddAndQueryThread) {
  Scheduler sched(twoCores());
  sched.addThread(1, AffinityMask::all(2));
  EXPECT_EQ(sched.threadCount(), 1u);
  EXPECT_EQ(sched.thread(1).state, ThreadState::Runnable);
  EXPECT_NE(sched.thread(1).core, kInvalidCore);
}

TEST(SchedulerTest, DuplicateIdThrows) {
  Scheduler sched(twoCores());
  sched.addThread(1, AffinityMask::all(2));
  EXPECT_THROW(sched.addThread(1, AffinityMask::all(2)), PreconditionError);
}

TEST(SchedulerTest, EmptyAffinityThrows) {
  Scheduler sched(twoCores());
  EXPECT_THROW(sched.addThread(1, AffinityMask{}), PreconditionError);
}

TEST(SchedulerTest, AffinityBeyondCoreCountThrows) {
  Scheduler sched(twoCores());
  EXPECT_THROW(sched.addThread(1, AffinityMask::single(5)), PreconditionError);
}

TEST(SchedulerTest, NewThreadsSpreadAcrossCores) {
  Scheduler sched(twoCores());
  sched.addThread(1, AffinityMask::all(2));
  sched.addThread(2, AffinityMask::all(2));
  EXPECT_NE(sched.thread(1).core, sched.thread(2).core);
}

TEST(SchedulerTest, DispatchRunsOneThreadPerCore) {
  Scheduler sched(twoCores());
  sched.addThread(1, AffinityMask::all(2));
  sched.addThread(2, AffinityMask::all(2));
  sched.addThread(3, AffinityMask::all(2));
  const Dispatch d = sched.schedule(0.01);
  int running = 0;
  for (const auto& r : d.running) {
    if (r) ++running;
  }
  EXPECT_EQ(running, 2);
  const std::size_t waiting = d.waiting[0] + d.waiting[1];
  EXPECT_EQ(waiting, 1u);
}

TEST(SchedulerTest, FairSharingOnOneCore) {
  SchedulerConfig config;
  config.coreCount = 1;
  Scheduler sched(config);
  sched.addThread(1, AffinityMask::single(0));
  sched.addThread(2, AffinityMask::single(0));
  for (int i = 0; i < 1000; ++i) (void)sched.schedule(0.01);
  const double t1 = sched.thread(1).cpuTime;
  const double t2 = sched.thread(2).cpuTime;
  EXPECT_NEAR(t1, t2, 0.05);
  EXPECT_NEAR(t1 + t2, 10.0, 1e-9);
}

TEST(SchedulerTest, BlockedThreadNeverRuns) {
  SchedulerConfig config;
  config.coreCount = 1;
  Scheduler sched(config);
  sched.addThread(1, AffinityMask::single(0));
  sched.block(1);
  const Dispatch d = sched.schedule(0.01);
  EXPECT_FALSE(d.running[0].has_value());
  EXPECT_DOUBLE_EQ(sched.thread(1).cpuTime, 0.0);
}

TEST(SchedulerTest, WakeMakesRunnableAgain) {
  SchedulerConfig config;
  config.coreCount = 1;
  Scheduler sched(config);
  sched.addThread(1, AffinityMask::single(0));
  sched.block(1);
  sched.wake(1);
  const Dispatch d = sched.schedule(0.01);
  EXPECT_EQ(d.running[0], 1);
}

TEST(SchedulerTest, WakeRunnableThreadIsNoOp) {
  Scheduler sched(twoCores());
  sched.addThread(1, AffinityMask::all(2));
  sched.wake(1);
  EXPECT_EQ(sched.thread(1).state, ThreadState::Runnable);
}

TEST(SchedulerTest, FinishedThreadCannotTransition) {
  Scheduler sched(twoCores());
  sched.addThread(1, AffinityMask::all(2));
  sched.finish(1);
  EXPECT_THROW(sched.block(1), PreconditionError);
  EXPECT_THROW(sched.wake(1), PreconditionError);
  const Dispatch d = sched.schedule(0.01);
  EXPECT_FALSE(d.running[0].has_value());
  EXPECT_FALSE(d.running[1].has_value());
}

TEST(SchedulerTest, SetAffinityMigratesImmediately) {
  Scheduler sched(twoCores());
  sched.addThread(1, AffinityMask::all(2));
  const CoreId original = sched.thread(1).core;
  const CoreId other = original == 0 ? 1 : 0;
  sched.setAffinity(1, AffinityMask::single(other));
  EXPECT_EQ(sched.thread(1).core, other);
  EXPECT_EQ(sched.thread(1).migrations, 1u);
  EXPECT_EQ(sched.totalMigrations(), 1u);
}

TEST(SchedulerTest, SetAffinityKeepingCurrentCoreDoesNotMigrate) {
  Scheduler sched(twoCores());
  sched.addThread(1, AffinityMask::all(2));
  const CoreId original = sched.thread(1).core;
  sched.setAffinity(1, AffinityMask::single(original));
  EXPECT_EQ(sched.thread(1).migrations, 0u);
}

TEST(SchedulerTest, MigrationAppliesSpeedPenaltyThatExpires) {
  SchedulerConfig config = twoCores();
  config.migrationPenalty = 0.05;
  config.migrationSpeedFactor = 0.6;
  Scheduler sched(config);
  sched.addThread(1, AffinityMask::all(2));
  const CoreId other = sched.thread(1).core == 0 ? 1 : 0;
  sched.setAffinity(1, AffinityMask::single(other));
  EXPECT_DOUBLE_EQ(sched.speedFactor(1), 0.6);
  for (int i = 0; i < 6; ++i) (void)sched.schedule(0.01);
  EXPECT_DOUBLE_EQ(sched.speedFactor(1), 1.0);
}

/// A migration penalty that the tick does not divide exactly: the cooldown
/// ends on the tick where repeated `max(0, c - dt)` subtraction first reaches
/// zero, which rounding can put one tick after or before ceil(penalty / dt).
struct CooldownCase {
  Seconds penalty;
  Seconds dt;
  int endTick;  ///< first schedule() after the migration whose coreSpeed is 1.0
};

class CooldownCrossing : public ::testing::TestWithParam<CooldownCase> {};

TEST_P(CooldownCrossing, SpeedRecoversOnTheRecordedTick) {
  const CooldownCase c = GetParam();
  SchedulerConfig config = twoCores();
  config.migrationPenalty = c.penalty;
  config.balanceInterval = 1000.0;
  Scheduler sched(config);
  sched.addThread(1, AffinityMask::all(2));
  const CoreId other = sched.thread(1).core == 0 ? 1 : 0;
  sched.setAffinity(1, AffinityMask::single(other));
  int tick = 0;
  do {
    (void)sched.schedule(c.dt);
    ++tick;
  } while (sched.coreSpeed(static_cast<std::size_t>(other)) < 1.0 && tick < 100);
  EXPECT_EQ(tick, c.endTick);
  EXPECT_EQ(sched.speedFactor(1), 1.0);
}

// Recorded from the scheduler that subtracted dt from every thread's
// cooldown on every tick. 0.1 s at 0.01 s ends after 11 ticks, not 10;
// 0.07 s at 0.01 s after 7, not 8.
INSTANTIATE_TEST_SUITE_P(Penalties, CooldownCrossing,
                         ::testing::Values(CooldownCase{0.05, 0.01, 5},
                                           CooldownCase{0.03, 0.007, 5},
                                           CooldownCase{0.1, 0.01, 11},
                                           CooldownCase{0.07, 0.01, 7}));

TEST(SchedulerTest, BalancerEvensOutLoad) {
  SchedulerConfig config;
  config.coreCount = 4;
  Scheduler sched(config);
  // Pin four threads to core 0 via affinity, then widen the masks: the
  // balancer should spread them out.
  for (ThreadId id = 1; id <= 4; ++id) sched.addThread(id, AffinityMask::single(0));
  for (ThreadId id = 1; id <= 4; ++id) sched.setAffinity(id, AffinityMask::all(4));
  sched.balanceNow();
  std::map<CoreId, int> load;
  for (ThreadId id = 1; id <= 4; ++id) ++load[sched.thread(id).core];
  for (const auto& [core, n] : load) EXPECT_EQ(n, 1);
}

TEST(SchedulerTest, BalancerRespectsAffinity) {
  SchedulerConfig config;
  config.coreCount = 4;
  Scheduler sched(config);
  for (ThreadId id = 1; id <= 4; ++id) sched.addThread(id, AffinityMask::single(0));
  sched.balanceNow();
  for (ThreadId id = 1; id <= 4; ++id) EXPECT_EQ(sched.thread(id).core, 0);
}

TEST(SchedulerTest, PeriodicBalanceRunsDuringSchedule) {
  SchedulerConfig config;
  config.coreCount = 2;
  config.balanceInterval = 0.05;
  Scheduler sched(config);
  sched.addThread(1, AffinityMask::single(0));
  sched.addThread(2, AffinityMask::single(0));
  sched.addThread(3, AffinityMask::single(0));
  for (ThreadId id = 1; id <= 3; ++id) sched.setAffinity(id, AffinityMask::all(2));
  for (int i = 0; i < 10; ++i) (void)sched.schedule(0.01);
  std::size_t core1 = sched.threadsOnCore(1).size();
  EXPECT_GE(core1, 1u);
}

TEST(SchedulerTest, ThreadsOnCoreSorted) {
  SchedulerConfig config;
  config.coreCount = 1;
  Scheduler sched(config);
  sched.addThread(5, AffinityMask::single(0));
  sched.addThread(2, AffinityMask::single(0));
  sched.addThread(9, AffinityMask::single(0));
  const std::vector<ThreadId> ids = sched.threadsOnCore(0);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids.size(), 3u);
}

TEST(SchedulerTest, RemoveAndClear) {
  Scheduler sched(twoCores());
  sched.addThread(1, AffinityMask::all(2));
  sched.addThread(2, AffinityMask::all(2));
  sched.removeThread(1);
  EXPECT_EQ(sched.threadCount(), 1u);
  EXPECT_THROW(sched.removeThread(1), PreconditionError);
  sched.clear();
  EXPECT_EQ(sched.threadCount(), 0u);
}

TEST(SchedulerTest, UnknownThreadThrows) {
  Scheduler sched(twoCores());
  EXPECT_THROW((void)sched.thread(42), PreconditionError);
  EXPECT_THROW(sched.block(42), PreconditionError);
  EXPECT_THROW(sched.setAffinity(42, AffinityMask::all(2)), PreconditionError);
}

TEST(SchedulerTest, InvalidConfigRejected) {
  SchedulerConfig config;
  config.coreCount = 0;
  EXPECT_THROW(Scheduler{config}, PreconditionError);
  config.coreCount = 2;
  config.migrationSpeedFactor = 0.0;
  EXPECT_THROW(Scheduler{config}, PreconditionError);
}

class ManyThreadsSweep : public ::testing::TestWithParam<int> {};

TEST_P(ManyThreadsSweep, CpuTimeConservedAcrossThreadCounts) {
  // Total CPU time handed out never exceeds cores x wall time, and with
  // enough runnable threads every core is fully utilized.
  SchedulerConfig config;
  config.coreCount = 4;
  Scheduler sched(config);
  const int threads = GetParam();
  for (ThreadId id = 0; id < threads; ++id) sched.addThread(id, AffinityMask::all(4));
  for (int i = 0; i < 200; ++i) (void)sched.schedule(0.01);
  double total = 0.0;
  for (ThreadId id = 0; id < threads; ++id) total += sched.thread(id).cpuTime;
  const double wall = 2.0;
  EXPECT_LE(total, 4.0 * wall + 1e-9);
  if (threads >= 4) {
    EXPECT_NEAR(total, 4.0 * wall, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, ManyThreadsSweep, ::testing::Values(1, 2, 4, 6, 9, 16));

}  // namespace
}  // namespace rltherm::sched
