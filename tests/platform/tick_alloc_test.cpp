// Pins the allocation-free tick: after warm-up, Machine::tick (scheduler,
// power and leakage, counters, thermal step, governor window) and
// WorkloadDriver::tick between application starts must not touch the heap,
// in every driver mode: sequential, replicated at each degree, concurrent.
// The sample path, the sensor read and the ground-truth read into caller
// buffers, must not either.
//
// The binary replaces the global allocation functions with counting ones,
// which is why it is built on its own (ctest label `alloc`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "platform/machine.hpp"
#include "workload/driver.hpp"

namespace {

std::atomic<std::size_t> gAllocations{0};

void* countedAlloc(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace rltherm {
namespace {

/// Heap allocations made while running `body`.
template <typename Body>
std::size_t allocationsDuring(Body&& body) {
  const std::size_t before = gAllocations.load(std::memory_order_relaxed);
  body();
  return gAllocations.load(std::memory_order_relaxed) - before;
}

workload::AppSpec endlessApp() {
  workload::AppSpec spec;
  spec.name = "endless";
  spec.family = "endless";
  spec.threadCount = 6;
  spec.iterations = 1000000;
  spec.sync = workload::SyncStyle::Barrier;
  spec.burstWorkMean = 0.05;
  spec.burstWorkJitter = 0.2;
  spec.burstActivity = 0.8;
  spec.serialWork = 0.02;
  spec.serialActivity = 0.2;
  spec.performanceConstraint = 0.5;
  return spec;
}

TEST(TickAllocationTest, CountingHookSeesAllocations) {
  // Guards against a vacuous pass: the replaced operator new must be the
  // one the program actually calls.
  const std::size_t counted = allocationsDuring([] {
    int* volatile p = new int(7);  // volatile: the pair cannot be elided
    delete p;
  });
  EXPECT_EQ(counted, 1u);
}

class SteadyMachineTick : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SteadyMachineTick, ThousandTicksAllocateNothing) {
  platform::MachineConfig config;
  config.thermalCellsPerCoreSide = GetParam();
  platform::Machine machine(config);
  for (ThreadId id = 1; id <= 6; ++id) {
    machine.scheduler().addThread(id, sched::AffinityMask::all(machine.coreCount()));
  }
  // Migrations put threads into their cache-warmth cooldown, so the measured
  // ticks also cover the slowed-down path and the balancer.
  machine.scheduler().setAffinity(1, sched::AffinityMask::single(0));
  machine.scheduler().setAffinity(2, sched::AffinityMask::single(0));
  const auto activity = [](ThreadId id) { return 0.1 * static_cast<double>(id); };
  for (int i = 0; i < 200; ++i) (void)machine.tick(activity);
  machine.scheduler().setAffinity(1, sched::AffinityMask::all(machine.coreCount()));

  std::size_t executions = 0;
  const std::size_t counted = allocationsDuring([&] {
    for (int i = 0; i < 1000; ++i) executions += machine.tick(activity).executed.size();
  });
  EXPECT_EQ(counted, 0u);
  EXPECT_EQ(executions, 1000u * machine.coreCount());
}

TEST_P(SteadyMachineTick, SampledTicksAllocateNothing) {
  platform::MachineConfig config;
  config.thermalCellsPerCoreSide = GetParam();
  platform::Machine machine(config);
  for (ThreadId id = 1; id <= 6; ++id) {
    machine.scheduler().addThread(id, sched::AffinityMask::all(machine.coreCount()));
  }
  const auto activity = [](ThreadId id) { return 0.1 * static_cast<double>(id); };
  std::vector<Celsius> readings(machine.coreCount());
  std::vector<Celsius> truth(machine.coreCount());
  // The first read creates the sensor channels.
  machine.readSensors(readings);
  for (int i = 0; i < 200; ++i) (void)machine.tick(activity);

  int sensorReads = 0;
  int truthReads = 0;
  Celsius hottest = 0.0;
  const std::size_t counted = allocationsDuring([&] {
    for (int i = 1; i <= 3000; ++i) {
      (void)machine.tick(activity);
      if (i % 300 == 0) {
        machine.readSensors(readings);
        ++sensorReads;
        for (const Celsius r : readings) hottest = std::max(hottest, r);
      }
      if (i % 100 == 0) {
        machine.trueCoreTemperatures(truth);
        ++truthReads;
      }
    }
  });
  EXPECT_EQ(counted, 0u);
  EXPECT_EQ(sensorReads, 10);
  EXPECT_EQ(truthReads, 30);
  EXPECT_GT(hottest, 0.0);
  EXPECT_GT(truth[0], 0.0);
}

INSTANTIATE_TEST_SUITE_P(Plants, SteadyMachineTick, ::testing::Values(1u, 4u));

TEST(TickAllocationTest, DriverTicksBetweenAppSwitchesAllocateNothing) {
  platform::Machine machine{platform::MachineConfig{}};
  workload::WorkloadDriver driver(machine, workload::Scenario::of({endlessApp()}));
  // Warm-up past two 20 s throughput windows, so the sample ring has
  // settled at its capacity and wrapped around.
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(driver.tick());
  const workload::RunningApp* app = driver.app();
  ASSERT_NE(app, nullptr);
  const int iterationsBefore = app->iterationsCompleted();

  const std::size_t counted = allocationsDuring([&] {
    for (int i = 0; i < 3000; ++i) (void)driver.tick();
  });
  EXPECT_EQ(counted, 0u);
  EXPECT_EQ(driver.app(), app) << "an app switch happened inside the window";
  EXPECT_GT(app->iterationsCompleted(), iterationsBefore);
  EXPECT_GT(driver.throughput(), 0.0);
}

class SteadyReplicatedTick : public ::testing::TestWithParam<int> {};

TEST_P(SteadyReplicatedTick, DriverTicksBetweenAppStartsAllocateNothing) {
  platform::Machine machine{platform::MachineConfig{}};
  workload::WorkloadDriver driver(machine, workload::Scenario::of({endlessApp()}),
                                  workload::ReplicationPlan{.initialDegree = GetParam()});
  // Warm-up past two 20 s windows, so the throughput and delivery rings
  // have settled at their capacity and wrapped around.
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(driver.tick());
  ASSERT_EQ(driver.currentDegree(), GetParam());
  const workload::RunningApp* app = driver.app();
  ASSERT_NE(app, nullptr);
  const std::int64_t deliveredBefore = driver.deliveredIterations();

  const std::size_t counted = allocationsDuring([&] {
    for (int i = 0; i < 3000; ++i) (void)driver.tick();
  });
  EXPECT_EQ(counted, 0u);
  EXPECT_EQ(driver.app(), app) << "an app start happened inside the window";
  EXPECT_GT(driver.deliveredIterations(), deliveredBefore);
  EXPECT_GT(driver.throughput(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Degrees, SteadyReplicatedTick, ::testing::Values(1, 2, 3));

TEST(TickAllocationTest, ConcurrentDriverTicksBetweenAppStartsAllocateNothing) {
  platform::Machine machine{platform::MachineConfig{}};
  workload::WorkloadDriver driver(machine, {endlessApp(), endlessApp()},
                                  /*restartFinished=*/true);
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(driver.tick());
  const workload::RunningApp* first = driver.app(0);
  const workload::RunningApp* second = driver.app(1);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  const int iterationsBefore = driver.totalIterations(0) + driver.totalIterations(1);

  const std::size_t counted = allocationsDuring([&] {
    for (int i = 0; i < 3000; ++i) (void)driver.tick();
  });
  EXPECT_EQ(counted, 0u);
  EXPECT_EQ(driver.app(0), first) << "an app restart happened inside the window";
  EXPECT_EQ(driver.app(1), second) << "an app restart happened inside the window";
  EXPECT_GT(driver.totalIterations(0) + driver.totalIterations(1), iterationsBefore);
  EXPECT_GT(driver.throughput(0), 0.0);
  EXPECT_GT(driver.throughput(1), 0.0);
}

}  // namespace
}  // namespace rltherm
