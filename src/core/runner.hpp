// Evaluation harness: runs one policy over one scenario on a fresh machine
// and produces every artefact the paper's tables and figures need —
// ground-truth temperature traces, reliability metrics, energy, execution
// times and perf counters.
//
// Evaluation traces are recorded from the *true* junction temperatures at a
// fixed 1-second interval regardless of the policy's own sensor sampling,
// mirroring Fig. 6's observation that the 1 s trace is the reference against
// which coarser-sampled MTTF estimates are over-estimates.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "platform/machine.hpp"
#include "reliability/analyzer.hpp"
#include "resil/replication.hpp"
#include "workload/driver.hpp"

namespace rltherm::core {

struct RunnerConfig {
  platform::MachineConfig machine;
  Seconds traceInterval = 1.0;    ///< evaluation (ground-truth) sampling
  Seconds maxSimTime = 40000.0;   ///< safety stop
  /// Leading/trailing trace windows excluded from reliability analysis, so
  /// the platform's initial settling transient and the final application
  /// teardown drain are not counted as (one-off) thermal cycles. The full
  /// traces are still returned for plotting. Application *switches* inside a
  /// scenario remain fully counted — they are the inter-application cycling
  /// under study.
  Seconds analysisWarmup = 90.0;
  Seconds analysisCooldown = 10.0;
  reliability::AnalyzerConfig analyzer;

  /// Perf-counter cost charged per policy sensor-sampling pass (the
  /// run-time system touches sensor registers, bookkeeping structures and
  /// its metric windows). Drives the Fig. 6 monitoring-overhead trend.
  std::uint64_t monitorCacheMissesPerSample = 300000;
  std::uint64_t monitorPageFaultsPerSample = 8000;

  /// Deterministic fault schedule replayed against the run (empty = no
  /// injection, the default; the runner then behaves bit-identically to a
  /// build without the fault layer). See src/fault/plan.hpp.
  fault::FaultPlan faults;

  /// Policy-checkpoint hooks (src/store/). When `resumeCheckpoint` is
  /// non-empty the policy's ThermalManager (possibly supervisor-wrapped)
  /// loads it right before onStart; when `saveCheckpointAtEnd` is non-empty
  /// a checkpoint is written after the run completes. Both fail with a
  /// diagnostic error if the policy carries no manager. Because saves happen
  /// at the run boundary, resume is bit-exact (see
  /// ThermalManager::saveCheckpoint).
  std::string resumeCheckpoint;
  std::string saveCheckpointAtEnd;

  /// Resilience mode: when set, run() drives the scenario through a
  /// resil::ReplicatedDriver (replicated thread groups + delivered-work
  /// accounting) instead of the plain WorkloadDriver. The plan fixes the
  /// merge policy and degree bounds; the live degree is an action
  /// (workload::ReplicationRequest) chosen by the policy. Empty (the
  /// default) leaves every existing run bit-identical.
  std::optional<resil::ReplicationPlan> replication;
};

struct RunResult {
  std::string policyName;
  std::string scenarioName;
  Seconds duration = 0.0;         ///< simulated time until the scenario finished
  bool timedOut = false;

  /// Ground-truth per-core temperature traces at traceInterval.
  std::vector<std::vector<Celsius>> coreTraces;
  Seconds traceInterval = 1.0;

  std::vector<workload::AppCompletion> completions;
  reliability::ChipReliability reliability;

  Joules dynamicEnergy = 0.0;
  Joules staticEnergy = 0.0;
  Watts averageDynamicPower = 0.0;
  Watts averageTotalPower = 0.0;
  platform::PerfCounterSample counters;

  /// Injection counters for the run (all zero when RunnerConfig::faults is
  /// empty).
  fault::FaultStats faultStats;

  /// Delivered-work accounting (resilience mode only; zero / 1.0 when
  /// RunnerConfig::replication is empty). `deliveredIterations` counts
  /// merged group output that survived core failures; `taintedIterations`
  /// counts replica iterations lost to a retired core.
  std::int64_t deliveredIterations = 0;
  std::int64_t taintedIterations = 0;
  double finalDeliveredRatio = 1.0;
};

class PolicyRunner {
 public:
  explicit PolicyRunner(RunnerConfig config = {});

  /// Run `policy` over `scenario` on a freshly constructed machine.
  [[nodiscard]] RunResult run(const workload::Scenario& scenario,
                              ThermalPolicy& policy) const;

  /// Concurrent-application mode (the paper's future-work extension): run
  /// all `apps` SIMULTANEOUSLY in server mode (each restarts when it
  /// finishes) for a fixed simulated `duration`. The result's completions
  /// hold one synthetic record per application slot with the iterations it
  /// accumulated over the window. Rejects a RunnerConfig::replication plan.
  [[nodiscard]] RunResult runConcurrent(const std::vector<workload::AppSpec>& apps,
                                        ThermalPolicy& policy,
                                        Seconds duration) const;

  [[nodiscard]] const RunnerConfig& config() const noexcept { return config_; }
  [[nodiscard]] RunnerConfig& config() noexcept { return config_; }

 private:
  RunnerConfig config_;
};

}  // namespace rltherm::core
