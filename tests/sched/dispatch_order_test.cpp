// Pins the scheduler's dispatch order. Equal-vruntime ties are common (a new
// thread starts at its queue's max vruntime), and they are broken in the
// scheduler's thread iteration order: the first runnable thread met with the
// smallest vruntime wins. That order is the libstdc++ std::unordered_map
// layout of the thread table, including how it changes on insertion,
// erasure and rehash. Every simulated result downstream depends on it, so an
// implementation change (a cached order, a different store) must reproduce
// the recorded sequence exactly.
#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rltherm::sched {
namespace {

/// Two cores, 24 equal-vruntime threads, then removals, additions past the
/// next rehash, affinity pinning (which drives the balancer), block/wake and
/// a clear followed by 26 fresh threads. Returns the runner of each core on
/// every tick (-1 for an idle core), core 0 first.
std::vector<ThreadId> observedPicks() {
  SchedulerConfig config;
  config.coreCount = 2;
  Scheduler sched(config);
  std::vector<ThreadId> picks;
  const auto run = [&](int ticks) {
    for (int i = 0; i < ticks; ++i) {
      const Dispatch& d = sched.schedule(0.01);
      for (const auto& r : d.running) picks.push_back(r.value_or(-1));
    }
  };
  for (ThreadId id = 1; id <= 24; ++id) sched.addThread(id, AffinityMask::all(2));
  run(30);
  for (const ThreadId id : {3, 7, 11, 19}) sched.removeThread(id);
  for (ThreadId id = 100; id < 113; ++id) sched.addThread(id, AffinityMask::all(2));
  run(25);
  for (const ThreadId id : {1, 2, 4, 5, 6, 8}) sched.setAffinity(id, AffinityMask::single(0));
  sched.block(9);
  sched.block(100);
  run(25);
  sched.wake(9);
  sched.wake(100);
  for (const ThreadId id : {1, 2, 4, 5, 6, 8}) sched.setAffinity(id, AffinityMask::all(2));
  run(25);
  sched.clear();
  for (ThreadId id = 200; id < 226; ++id) sched.addThread(id, AffinityMask::all(2));
  run(30);
  return picks;
}

TEST(DispatchOrderTest, EqualVruntimeTiesFollowIterationOrder) {
  // Recorded from the hash-map-iterating scheduler, before the dispatch
  // order was cached; five ticks (ten picks) per line.
  const std::vector<ThreadId> expected = {
    23, 24, 21, 22, 19, 20, 17, 18, 15, 16,
    1, 14, 3, 2, 5, 4, 7, 6, 9, 8,
    11, 10, 13, 12, 23, 24, 21, 22, 19, 20,
    17, 18, 15, 16, 1, 14, 3, 2, 5, 4,
    7, 6, 9, 8, 11, 10, 13, 12, 23, 24,
    21, 22, 19, 20, 17, 18, 15, 16, 1, 14,
    13, 12, 9, 10, 5, 8, 112, 6, 110, 4,
    13, 2, 100, 111, 9, 109, 5, 12, 1, 10,
    101, 8, 15, 6, 102, 4, 103, 2, 17, 14,
    104, 16, 21, 18, 108, 105, 23, 20, 106, 107,
    112, 22, 110, 24, 13, 111, 100, 109, 9, 12,
    5, 10, 1, 14, 101, 16, 15, 18, 102, 105,
    103, 20, 17, 107, 104, 22, 21, 24, 108, 112,
    23, 111, 106, 110, 8, 109, 6, 13, 5, 12,
    4, 10, 2, 14, 1, 16, 101, 18, 15, 105,
    102, 20, 103, 107, 17, 22, 104, 24, 21, 112,
    100, 111, 9, 110, 108, 109, 23, 13, 106, 12,
    100, 10, 9, 14, 8, 16, 6, 18, 5, 105,
    4, 20, 2, 107, 1, 22, 101, 24, 15, 112,
    102, 111, 103, 110, 17, 109, 104, 13, 21, 12,
    108, 10, 23, 14, 106, 16, 9, 18, 8, 105,
    224, 225, 222, 223, 220, 221, 218, 219, 216, 217,
    214, 215, 212, 213, 210, 211, 208, 209, 206, 207,
    204, 205, 202, 203, 200, 201, 224, 225, 222, 223,
    220, 221, 218, 219, 216, 217, 214, 215, 212, 213,
    210, 211, 208, 209, 206, 207, 204, 205, 202, 203,
    200, 201, 224, 225, 222, 223, 220, 221, 218, 219,
  };
  EXPECT_EQ(observedPicks(), expected);
}

TEST(DispatchOrderTest, CoreSpeedMatchesTheRunnersSpeedFactor) {
  SchedulerConfig config;
  config.coreCount = 2;
  config.migrationPenalty = 0.05;
  Scheduler sched(config);
  for (ThreadId id = 1; id <= 5; ++id) sched.addThread(id, AffinityMask::all(2));
  for (int tick = 0; tick < 200; ++tick) {
    if (tick % 7 == 0) {
      const auto id = static_cast<ThreadId>(1 + tick % 5);
      sched.setAffinity(id, AffinityMask::single(static_cast<CoreId>(tick / 7 % 2)));
    }
    const Dispatch& d = sched.schedule(0.01);
    for (std::size_t core = 0; core < d.running.size(); ++core) {
      if (const auto& runner = d.running[core]) {
        EXPECT_EQ(sched.coreSpeed(core), sched.speedFactor(*runner));
      }
    }
  }
  EXPECT_GT(sched.totalMigrations(), 0u);
}

TEST(DispatchOrderTest, RemovingTheLastRunnerLeavesNoDanglingCoreSpeed) {
  SchedulerConfig config;
  config.coreCount = 1;
  Scheduler sched(config);
  sched.addThread(1, AffinityMask::single(0));
  ASSERT_EQ(sched.schedule(0.01).running[0], 1);
  sched.removeThread(1);
  EXPECT_EQ(sched.coreSpeed(0), 1.0);
  EXPECT_FALSE(sched.schedule(0.01).running[0].has_value());
}

}  // namespace
}  // namespace rltherm::sched
