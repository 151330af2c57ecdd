// Simulation: the one closed loop, resumable.
//
// One policy drives one workload on a fresh machine: tick, sense at the
// policy's sampling interval, record the ground-truth trace. PolicyRunner
// (run and runConcurrent) and every fleet tenant run this loop. advanceTo()
// may be called with growing limits; a limit only pauses the loop, so a run
// advanced in slices is bit-identical to one advanced in a single call. The
// per-tick order is the contract stated in fault/injector.hpp.
//
// The constructor sets the workload driver's mode: a scenario runs
// sequentially, or replicated under `config.replication`; a list of apps
// runs concurrently. The driver reports its own completions, delivered-work
// counts and whether it can finish, so the loop is the same for every mode.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/runner.hpp"
#include "fault/injector.hpp"
#include "platform/machine.hpp"
#include "workload/driver.hpp"

namespace rltherm::core {

class Simulation {
 public:
  /// Builds the machine, the driver and the fault wiring, then starts the
  /// run: `runner.run.start`, the checkpoint resume when configured,
  /// policy.onStart. `scenario` runs sequentially, or replicated under
  /// `config.replication`. `trace` records the true core temperatures every
  /// `config.traceInterval`. `policy` must outlive this.
  Simulation(RunnerConfig config, bool trace, ThermalPolicy& policy,
             workload::Scenario scenario);

  /// Concurrent mode: every app of `apps` runs at once and restarts when it
  /// finishes, so the run ends only at the advanceTo() limit. Rejects a
  /// `config.replication` plan.
  Simulation(RunnerConfig config, bool trace, ThermalPolicy& policy,
             std::vector<workload::AppSpec> apps);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Ticks while the workload runs and now() < limit.
  void advanceTo(Seconds limit);

  /// Assembles the RunResult (reliability analysis, energy, counters,
  /// `runner.run.finish`) and saves `config.saveCheckpointAtEnd` when set.
  /// Call once, after the last advanceTo().
  [[nodiscard]] RunResult finish();

  /// False once the driver reported the workload complete.
  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] Seconds now() const noexcept { return machine_.now(); }
  /// Sensor passes delivered to the policy.
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  /// Hottest sensor reading delivered to the policy (0 before the first).
  [[nodiscard]] Celsius peakReading() const noexcept { return peakReading_; }
  [[nodiscard]] const workload::WorkloadDriver& driver() const noexcept { return driver_; }

 private:
  /// Attaches the injector for a non-empty plan and returns the control the
  /// policy acts through (gated by the injector, or the bare driver).
  workload::WorkloadControl& attachFaults();
  void start(bool trace, std::string scenarioName);

  RunnerConfig config_;
  ThermalPolicy& policy_;
  platform::Machine machine_;
  workload::WorkloadDriver driver_;
  // Declared after the machine so the injector detaches before the machine
  // is destroyed.
  std::optional<fault::FaultInjector> injector_;
  std::optional<fault::GatedWorkloadControl> gatedControl_;
  PolicyContext ctx_;
  /// Sensor and ground-truth buffers the clean sample path reads into.
  std::vector<Celsius> readings_;
  std::vector<Celsius> truth_;

  RunResult result_;  ///< header and traces, filled in by finish()
  bool running_ = true;
  Seconds nextSample_ = -1.0;
  Seconds nextTrace_ = std::numeric_limits<Seconds>::infinity();
  std::size_t samples_ = 0;
  Celsius peakReading_ = 0.0;
};

}  // namespace rltherm::core
