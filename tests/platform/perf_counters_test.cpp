#include "platform/perf_counters.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "power/vf_table.hpp"

namespace rltherm::platform {
namespace {

TEST(PerfCountersTest, InstructionsScaleWithFrequencyAndTime) {
  PerfCounters counters(PerfCounterConfig{.baseIpc = 1.0});
  counters.recordExecution(1.0e9, 1.0, 1.0, false);
  EXPECT_EQ(counters.sample().cycles, 1000000000u);
  EXPECT_EQ(counters.sample().instructions, 1000000000u);
}

TEST(PerfCountersTest, SpeedFactorReducesInstructionsNotCycles) {
  PerfCounters counters(PerfCounterConfig{.baseIpc = 1.0});
  counters.recordExecution(1.0e9, 1.0, 0.5, false);
  EXPECT_EQ(counters.sample().cycles, 1000000000u);
  EXPECT_EQ(counters.sample().instructions, 500000000u);
}

TEST(PerfCountersTest, MissRatesApplied) {
  PerfCounterConfig config;
  config.baseIpc = 1.0;
  config.cacheMissPerInstruction = 1e-3;
  config.pageFaultPerInstruction = 1e-6;
  PerfCounters counters(config);
  counters.recordExecution(1.0e9, 1.0, 1.0, false);
  EXPECT_EQ(counters.sample().cacheMisses, 1000000u);
  EXPECT_EQ(counters.sample().pageFaults, 1000u);
}

TEST(PerfCountersTest, MigrationCooldownMultipliesRates) {
  PerfCounterConfig config;
  config.baseIpc = 1.0;
  config.cacheMissPerInstruction = 1e-3;
  config.migrationMissMultiplier = 8.0;
  PerfCounters warm(config);
  PerfCounters cold(config);
  warm.recordExecution(1.0e9, 1.0, 1.0, false);
  cold.recordExecution(1.0e9, 1.0, 1.0, true);
  EXPECT_EQ(cold.sample().cacheMisses, warm.sample().cacheMisses * 8);
}

TEST(PerfCountersTest, FractionalCarriesAccumulate) {
  // Rates small enough that a single tick yields < 1 event must still
  // accumulate across ticks instead of being truncated away.
  PerfCounterConfig config;
  config.baseIpc = 1.0;
  config.pageFaultPerInstruction = 1e-10;  // 0.1 faults per 1e9-instr tick
  PerfCounters counters(config);
  for (int i = 0; i < 100; ++i) counters.recordExecution(1.0e9, 1.0, 1.0, false);
  EXPECT_GE(counters.sample().pageFaults, 9u);  // 10 +- one ulp-rounding count
  EXPECT_LE(counters.sample().pageFaults, 10u);
}

TEST(PerfCountersTest, EventCountersIncrement) {
  PerfCounters counters;
  counters.recordContextSwitch();
  counters.recordContextSwitch();
  counters.recordMigration();
  EXPECT_EQ(counters.sample().contextSwitches, 2u);
  EXPECT_EQ(counters.sample().migrations, 1u);
}

TEST(PerfCountersTest, ResetClears) {
  PerfCounters counters;
  counters.recordExecution(1.0e9, 1.0, 1.0, false);
  counters.recordMigration();
  counters.reset();
  EXPECT_EQ(counters.sample().instructions, 0u);
  EXPECT_EQ(counters.sample().migrations, 0u);
}

TEST(PerfCountersTest, TruncatingDrainMatchesFloorOracle) {
  // recordExecution drains each fractional carry by integer truncation; the
  // oracle below is the std::floor formulation it replaced. Over seeded
  // executions at every P-state, random tick lengths and speeds, and
  // migration cooldowns, all four counters must agree after every call.
  const PerfCounterConfig config;
  PerfCounters counters(config);
  struct Oracle {
    double cycleCarry = 0.0, instrCarry = 0.0, missCarry = 0.0, faultCarry = 0.0;
    PerfCounterSample sample;
  } oracle;
  const auto drain = [](double& carry, std::uint64_t& counter) {
    const double whole = std::floor(carry);
    counter += static_cast<std::uint64_t>(whole);
    carry -= whole;
  };
  const power::VfTable table = power::VfTable::defaultQuadCore();
  Rng rng(20140601);
  for (int i = 0; i < 200000; ++i) {
    const Hertz f = table.point(rng.uniformInt(table.size())).frequency;
    const Seconds dt = rng.bernoulli(0.5) ? 0.01 : rng.uniform(1e-6, 0.05);
    const bool coolingDown = rng.bernoulli(0.3);
    const double speed = coolingDown ? 0.6 : (rng.bernoulli(0.8) ? 1.0 : rng.uniform(0.05, 1.0));
    counters.recordExecution(f, dt, speed, coolingDown);

    const double cycles = f * dt;
    const double instructions = cycles * config.baseIpc * speed;
    oracle.cycleCarry += cycles;
    oracle.instrCarry += instructions;
    const double missRate = config.cacheMissPerInstruction *
                            (coolingDown ? config.migrationMissMultiplier : 1.0);
    const double faultRate = config.pageFaultPerInstruction *
                             (coolingDown ? config.migrationFaultMultiplier : 1.0);
    oracle.missCarry += instructions * missRate;
    oracle.faultCarry += instructions * faultRate;
    drain(oracle.cycleCarry, oracle.sample.cycles);
    drain(oracle.instrCarry, oracle.sample.instructions);
    drain(oracle.missCarry, oracle.sample.cacheMisses);
    drain(oracle.faultCarry, oracle.sample.pageFaults);

    const PerfCounterSample& got = counters.sample();
    ASSERT_EQ(got.cycles, oracle.sample.cycles) << "execution " << i;
    ASSERT_EQ(got.instructions, oracle.sample.instructions) << "execution " << i;
    ASSERT_EQ(got.cacheMisses, oracle.sample.cacheMisses) << "execution " << i;
    ASSERT_EQ(got.pageFaults, oracle.sample.pageFaults) << "execution " << i;
  }
}

TEST(PerfCountersTest, InvalidInputsRejected) {
  PerfCounters counters;
  EXPECT_THROW(counters.recordExecution(0.0, 1.0, 1.0, false), PreconditionError);
  EXPECT_THROW(counters.recordExecution(1e9, 0.0, 1.0, false), PreconditionError);
  EXPECT_THROW(counters.recordExecution(1e9, 1.0, 0.0, false), PreconditionError);
  EXPECT_THROW(counters.recordExecution(1e9, 1.0, 1.5, false), PreconditionError);
  EXPECT_THROW(PerfCounters(PerfCounterConfig{.baseIpc = 0.0}), PreconditionError);
}

}  // namespace
}  // namespace rltherm::platform
