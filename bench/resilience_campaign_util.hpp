// Resilience acceptance campaign: the two-arm supervisor-vs-replication grid.
//
// This is the REAL campaign code — bench_resilience and the ctest acceptance
// suite (tests/resil/acceptance_test.cpp) both build their lanes through
// these helpers, so the delivered-work / MTTF / energy gates the tests pin
// are exercised on exactly the runs the report prints, and the
// bit-identical-across-`--jobs` claim covers the gated numbers themselves.
//
// Both arms replay the same seeded fault storm
// (scenarios/fault_storm_replication.toml) in replicated mode, so
// delivered-work accounting is identical; the arms differ ONLY in what the
// agent can see and do (see resilienceSpecs below).
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/safety_supervisor.hpp"
#include "fault/plan.hpp"

namespace rltherm::bench {

/// Directory containing scenarios/: `--scenarios DIR` wins, else probe the
/// working directory and its two parents (repo root, build/, build/bench/).
inline std::string scenarioRoot(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--scenarios") return argv[i + 1];
  }
  for (const char* root : {".", "..", "../.."}) {
    std::ifstream probe(std::string(root) +
                        "/scenarios/fault_storm_replication.toml");
    if (probe.good()) return root;
  }
  throw PreconditionError(
      "cannot find scenarios/ (run from the repo root or pass --scenarios DIR)");
}

/// The two campaign arms as sweep specs, in report order:
///
///   [0] supervisor   SafetySupervisor around the standard manager — no
///                    replication actions, health axis off, fixed decision
///                    epochs. Degree stays at 1; every core loss taints the
///                    lone replica's in-flight work.
///   [1] replication  SafetySupervisor around the resilience-aware manager —
///                    ActionSpace::resilient (rep:1..rep:3 placement-away-
///                    from-suspect actions), a 3-level health axis in the
///                    Q-state, the delivered-work reward term, and
///                    event-triggered SMDP epochs so a detection lets it
///                    act immediately.
///
/// `root` is any directory holding scenarios/ (see scenarioRoot).
inline std::vector<exec::RunSpec> resilienceSpecs(const std::string& root) {
  const fault::FaultPlan storm =
      fault::FaultPlan::fromFile(root + "/scenarios/fault_storm_replication.toml");
  const std::vector<workload::AppSpec> apps = {workload::tachyon(1),
                                               workload::mpegDec(1)};

  core::RunnerConfig runner = defaultRunnerConfig();
  runner.faults = storm;
  runner.replication = workload::ReplicationPlan{
      .merge = workload::MergePolicy::FirstFinisher,
      .initialDegree = 1,
      .maxDegree = 3,
  };

  const core::SafetySupervisorConfig safety;
  const std::size_t coreCount = runner.machine.coreCount;
  const workload::Scenario eval = workload::Scenario::of(apps);
  const workload::Scenario train = repeated(apps, 2);

  std::vector<exec::RunSpec> specs;
  {
    exec::RunSpec spec;
    spec.label = "supervisor";
    spec.scenario = eval;
    spec.train = train;
    spec.freezeAfterTrain = true;
    spec.runner = runner;
    const core::ThermalManagerConfig manager;  // health axis off, fixed epochs
    spec.policy = [manager, safety, coreCount](std::uint64_t) {
      return std::unique_ptr<core::ThermalPolicy>(
          std::make_unique<core::SafetySupervisor>(
              std::make_unique<core::ThermalManager>(
                  manager, core::ActionSpace::standard(coreCount)),
              safety));
    };
    specs.push_back(std::move(spec));
  }
  {
    exec::RunSpec spec;
    spec.label = "replication";
    spec.scenario = eval;
    spec.train = train;
    spec.freezeAfterTrain = true;
    spec.runner = runner;
    core::ThermalManagerConfig manager;
    manager.healthStates = 3;
    manager.reward.deliveredWorkWeight = 1.0;
    manager.eventTriggeredEpochs = true;
    spec.policy = [manager, safety, coreCount](std::uint64_t) {
      return std::unique_ptr<core::ThermalPolicy>(
          std::make_unique<core::SafetySupervisor>(
              std::make_unique<core::ThermalManager>(
                  manager, core::ActionSpace::resilient(coreCount)),
              safety));
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace rltherm::bench
