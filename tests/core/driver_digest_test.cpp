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
#include <functional>
#include <span>
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

/// Samples every 0.5 s without acting, except through an optional script
/// called with the machine at each sample. It folds the sensor readings it
/// receives into a digest and counts the hardware-throttle engagements and
/// releases it sees between samples.
class ProbePolicy final : public ThermalPolicy {
 public:
  using Script = std::function<void(platform::Machine&)>;
  explicit ProbePolicy(Script script = {}) : script_(std::move(script)) {}

  [[nodiscard]] std::string name() const override { return "probe"; }
  [[nodiscard]] Seconds samplingInterval() const override { return 0.5; }
  void onSample(PolicyContext& ctx, std::span<const Celsius> temps) override {
    for (const Celsius t : temps) readings_.mix(t);
    platform::Machine& machine = ctx.machine;
    throttled_.resize(machine.coreCount(), false);
    for (std::size_t c = 0; c < machine.coreCount(); ++c) {
      if (machine.throttled(c) != throttled_[c]) ++(throttled_[c] ? releases_ : engages_);
      throttled_[c] = machine.throttled(c);
    }
    if (script_) script_(machine);
  }

  [[nodiscard]] std::uint64_t readingsDigest() const noexcept { return readings_.value(); }
  [[nodiscard]] int engages() const noexcept { return engages_; }
  [[nodiscard]] int releases() const noexcept { return releases_; }

 private:
  Script script_;
  Digest readings_;
  std::vector<bool> throttled_;
  int engages_ = 0;
  int releases_ = 0;
};

void expectProbeDigest(const RunResult& result, const ProbePolicy& probe,
                       std::uint64_t pinned) {
  Digest d;
  d.mix(digestOf(result));
  d.mix(probe.readingsDigest());
  EXPECT_EQ(d.value(), pinned) << "digest 0x" << std::hex << d.value();
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

/// The cases below run at one and at two thermal cells per core side.
class PlatformDigestTest : public DriverDigestTest,
                           public ::testing::WithParamInterface<std::size_t> {
 protected:
  [[nodiscard]] RunnerConfig config() const {
    RunnerConfig config = runnerConfig();
    config.machine.thermalCellsPerCoreSide = GetParam();
    return config;
  }
  /// Pinned digest of this case at the current resolution.
  [[nodiscard]] std::uint64_t pinned(std::uint64_t lumped, std::uint64_t grid) const {
    return GetParam() == 1 ? lumped : grid;
  }
};

TEST_P(PlatformDigestTest, BigLittleUnderTheManager) {
  RunnerConfig config = this->config();
  config.machine.coreTypes = platform::bigLittleCoreTypes();
  ThermalManager manager = freshManager();
  const RunResult result = PolicyRunner(config).run(scenario(), manager);
  ASSERT_EQ(result.completions.size(), 2u);
  expectDigest(result, pinned(0x5d8623d75b58932bULL, 0x592b56c1fabf10d2ULL));
}

TEST_P(PlatformDigestTest, ThrottleEngagesAndReleases) {
  RunnerConfig config = this->config();
  config.machine.throttleTemp = 60.0;  // the run peaks just above it
  ProbePolicy probe;
  const RunResult result = PolicyRunner(config).run(scenario(), probe);
  ASSERT_EQ(result.completions.size(), 2u);
  EXPECT_GT(probe.engages(), 0);
  EXPECT_GT(probe.releases(), 0);
  expectProbeDigest(result, probe, pinned(0x2fd03a01cd701cf8ULL, 0x3e01a37c1977d3b0ULL));
}

TEST_P(PlatformDigestTest, PerCoreUserspaceBetweenTablePointsWithACoreOffline) {
  // 2.3 GHz floors to 2.0 GHz and 3.1 GHz to 2.8 GHz; core 3 stays under
  // ondemand until it goes offline at t = 100 s.
  int samples = 0;
  ProbePolicy probe([&samples](platform::Machine& machine) {
    if (samples++ == 0) {
      machine.setCoreGovernor(0, {platform::GovernorKind::Userspace, 2.3e9});
      machine.setCoreGovernor(1, {platform::GovernorKind::Userspace, 3.1e9});
      machine.setCoreGovernor(2, {platform::GovernorKind::Conservative, 0.0});
    }
    if (samples == 200) machine.setCoreOnline(3, false);
  });
  const RunResult result = PolicyRunner(this->config()).run(scenario(), probe);
  ASSERT_EQ(result.completions.size(), 2u);
  ASSERT_GT(samples, 200);
  expectProbeDigest(result, probe, pinned(0x45df46b618ab77e4ULL, 0xa3f87fe4b2e93f94ULL));
}

INSTANTIATE_TEST_SUITE_P(CellsPerCoreSide, PlatformDigestTest, ::testing::Values(1u, 2u));

}  // namespace
}  // namespace rltherm::core
