// Pinned digests of whole closed-loop runs through the workload driver.
//
// Each case runs PolicyRunner end to end and folds what a user reads off the
// RunResult into one FNV-1a(64) digest: the ground-truth traces, the
// duration, the energies, the completions, the perf counters, the fault
// statistics and the delivered-work fields. The cases cover the sequential
// scenario (under the proposed manager, and under the modified Ge policy,
// which acts on the application-switch signal), the same scenario with a
// permanent core death, the majority-vote replicated scenario with that core
// death, and a concurrent run. Dispatch ties follow the scheduler's thread
// table order, so even thread-id values can move these digests. They are
// pinned for x86-64 only, whose baseline ISA rounds every double operation
// the same way at any optimization level.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/runner.hpp"
#include "core/thermal_manager.hpp"
#include "fault/plan.hpp"
#include "workload/app_spec.hpp"
#include "workload/driver.hpp"

namespace rltherm::core {
namespace {

/// FNV-1a(64) over raw bytes, accumulated field by field.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* raw = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= raw[i];
      hash_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void mix(const T& value) {
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    bytes(raw, sizeof(T));
  }
  void mix(const std::string& text) {
    mix(text.size());
    bytes(text.data(), text.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t digestOf(const RunResult& r) {
  Digest d;
  d.mix(r.duration);
  d.mix(r.timedOut);
  for (const std::vector<Celsius>& trace : r.coreTraces) {
    d.mix(trace.size());
    for (const Celsius t : trace) d.mix(t);
  }
  d.mix(r.dynamicEnergy);
  d.mix(r.staticEnergy);
  d.mix(r.averageDynamicPower);
  d.mix(r.averageTotalPower);
  d.mix(r.completions.size());
  for (const workload::AppCompletion& c : r.completions) {
    d.mix(c.name);
    d.mix(c.startTime);
    d.mix(c.endTime);
    d.mix(c.iterations);
  }
  const platform::PerfCounterSample& k = r.counters;
  for (const std::uint64_t v : {k.instructions, k.cycles, k.cacheMisses, k.pageFaults,
                                k.contextSwitches, k.migrations}) {
    d.mix(v);
  }
  const fault::FaultStats& f = r.faultStats;
  for (const std::uint64_t v :
       {f.sensorFaultsApplied, f.sensorFaultsCleared, f.samplesDropped, f.samplesDelayed,
        f.dvfsIgnored, f.dvfsDeferred, f.dvfsPartial, f.affinityDropped, f.coresRetired,
        f.coreOfflines, f.coreOnlines}) {
    d.mix(v);
  }
  d.mix(r.deliveredIterations);
  d.mix(r.taintedIterations);
  d.mix(r.finalDeliveredRatio);
  return d.value();
}

RunnerConfig runnerConfig() {
  RunnerConfig config;
  config.analysisWarmup = 0.0;
  config.analysisCooldown = 0.0;
  config.maxSimTime = 40000.0;
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

fault::FaultPlan coreDeath() {
  return fault::FaultPlan::parse(
      "[scenario]\nname = \"digest-core-death\"\ncores = 4\n\n"
      "[[event]]\nt = 200.0\nkind = \"core.dead\"\ncore = 2\n",
      "digest-core-death");
}

workload::AppSpec shortApp(const std::string& name, double activity) {
  workload::AppSpec spec;
  spec.name = name;
  spec.family = name;
  spec.threadCount = 2;
  spec.iterations = 40;
  spec.burstWorkMean = 0.2;
  spec.burstWorkJitter = 0.1;
  spec.burstActivity = activity;
  spec.serialWork = 0.1;
  spec.serialActivity = 0.2;
  spec.performanceConstraint = 0.1;
  return spec;
}

void expectDigest(const RunResult& result, std::uint64_t pinned) {
  const std::uint64_t digest = digestOf(result);
  EXPECT_EQ(digest, pinned) << "digest 0x" << std::hex << digest;
}

class DriverDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !defined(__x86_64__)
    GTEST_SKIP() << "digests are pinned for x86-64";
#endif
  }
};

TEST_F(DriverDigestTest, SequentialUnderTheManager) {
  ThermalManager manager = freshManager();
  const RunResult result = PolicyRunner(runnerConfig()).run(scenario(), manager);
  ASSERT_EQ(result.completions.size(), 2u);  // vacuity: the app switch happened
  expectDigest(result, 0xbe16691394dcd53fULL);
}

TEST_F(DriverDigestTest, SequentialUnderTheSwitchSignal) {
  GeQiuPolicy policy(GeQiuConfig{}, /*explicitSwitchSignal=*/true);
  ASSERT_TRUE(policy.wantsAppSwitchSignal());
  const RunResult result = PolicyRunner(runnerConfig()).run(scenario(), policy);
  ASSERT_EQ(result.completions.size(), 2u);
  expectDigest(result, 0x1ca107b0ffb86d80ULL);
}

TEST_F(DriverDigestTest, SequentialWithCoreDeath) {
  RunnerConfig config = runnerConfig();
  config.faults = coreDeath();
  ThermalManager manager = freshManager();
  const RunResult result = PolicyRunner(config).run(scenario(), manager);
  ASSERT_EQ(result.faultStats.coresRetired, 1u);
  EXPECT_EQ(result.deliveredIterations, 0);
  EXPECT_EQ(result.taintedIterations, 0);
  EXPECT_EQ(result.finalDeliveredRatio, 1.0);
  expectDigest(result, 0xf147b25693154238ULL);
}

TEST_F(DriverDigestTest, MajorityVoteReplicationWithCoreDeath) {
  RunnerConfig config = runnerConfig();
  config.faults = coreDeath();
  config.replication =
      workload::ReplicationPlan{.merge = workload::MergePolicy::MajorityVote, .initialDegree = 2};
  ThermalManager manager = freshManager();
  const RunResult result = PolicyRunner(config).run(scenario(), manager);
  ASSERT_EQ(result.faultStats.coresRetired, 1u);
  EXPECT_GT(result.deliveredIterations, 0);
  expectDigest(result, 0x489958d222b0fc36ULL);
}

TEST_F(DriverDigestTest, ConcurrentUnderTheManager) {
  ThermalManager manager = freshManager();
  const RunResult result = PolicyRunner(runnerConfig()).runConcurrent(
      {shortApp("a", 0.9), shortApp("b", 0.5)}, manager, 150.0);
  ASSERT_EQ(result.completions.size(), 2u);
  expectDigest(result, 0x6e6e16bfeb177c97ULL);
}

}  // namespace
}  // namespace rltherm::core
