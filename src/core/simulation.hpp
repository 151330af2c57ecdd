// Simulation: the one closed loop, resumable.
//
// One policy drives one workload on a fresh machine: tick, sense at the
// policy's sampling interval, record the ground-truth trace. PolicyRunner
// (run and runConcurrent) and every fleet tenant run this loop. advanceTo()
// may be called with growing limits; a limit only pauses the loop, so a run
// advanced in slices is bit-identical to one advanced in a single call. The
// per-tick order is the contract stated in fault/injector.hpp.
//
// A template over the driver, so tick() stays a direct call; explicitly
// instantiated in simulation.cpp for workload::WorkloadDriver,
// resil::ReplicatedDriver and workload::MultiAppDriver. Include the header
// of the driver you use.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "core/policy.hpp"
#include "core/runner.hpp"
#include "fault/injector.hpp"
#include "platform/machine.hpp"

namespace rltherm::core {

template <typename DriverT>
class Simulation {
 public:
  /// Builds the machine, the driver (machine, driverArgs...) and the fault
  /// wiring, then starts the run: `runner.run.start`, the checkpoint resume
  /// when configured, policy.onStart. `trace` records the true core
  /// temperatures every `config.traceInterval`. `policy` must outlive this.
  template <typename... DriverArgs>
  Simulation(RunnerConfig config, bool trace, ThermalPolicy& policy,
             std::string scenarioName, DriverArgs&&... driverArgs)
      : config_(std::move(config)),
        policy_(policy),
        machine_(config_.machine),
        driver_(machine_, std::forward<DriverArgs>(driverArgs)...),
        ctx_{machine_, attachFaults()} {
    start(trace, std::move(scenarioName));
  }

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
  [[nodiscard]] const DriverT& driver() const noexcept { return driver_; }

 private:
  /// Attaches the injector for a non-empty plan and returns the control the
  /// policy acts through (gated by the injector, or the bare driver).
  workload::WorkloadControl& attachFaults();
  void start(bool trace, std::string scenarioName);

  RunnerConfig config_;
  ThermalPolicy& policy_;
  platform::Machine machine_;
  DriverT driver_;
  // Declared after the machine so the injector detaches before the machine
  // is destroyed.
  std::optional<fault::FaultInjector> injector_;
  std::optional<fault::GatedWorkloadControl> gatedControl_;
  PolicyContext ctx_;

  RunResult result_;  ///< header and traces, filled in by finish()
  bool running_ = true;
  Seconds nextSample_ = -1.0;
  Seconds nextTrace_ = std::numeric_limits<Seconds>::infinity();
  std::size_t samples_ = 0;
  Celsius peakReading_ = 0.0;
};

}  // namespace rltherm::core
