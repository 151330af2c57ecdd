// Thermal-management policy interface.
//
// A policy is the run-time system under evaluation: it observes the machine
// through the sensor samples the runner feeds it at its own sampling
// interval, and acts through the machine's control surface (governor,
// affinity). The PolicyRunner drives any policy over any scenario and
// produces identical evaluation artefacts, so the paper's comparisons
// (Linux ondemand vs Ge & Qiu vs Proposed) are apples-to-apples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "platform/machine.hpp"
#include "workload/control.hpp"

namespace rltherm::core {

/// Immutable per-core health view, published by the SafetySupervisor to the
/// policy it wraps (PolicyContext::health). `level` is the supervisor's
/// sensor-FSM verdict for the core's channel; `online` is the hardware
/// hotplug state. Policies that ignore it behave exactly as before — the
/// pointer is null when no supervisor is interposed.
struct HealthSnapshot {
  struct CoreHealth {
    std::uint8_t level = 0;  ///< 0 = healthy, 1 = suspect, 2 = quarantined
    bool online = true;
  };
  std::vector<CoreHealth> cores;

  [[nodiscard]] std::size_t count(std::uint8_t level) const noexcept {
    std::size_t n = 0;
    for (const CoreHealth& core : cores) {
      if (core.level == level) ++n;
    }
    return n;
  }
  [[nodiscard]] std::size_t offlineCount() const noexcept {
    std::size_t n = 0;
    for (const CoreHealth& core : cores) {
      if (!core.online) ++n;
    }
    return n;
  }
  /// Cores a resilience-aware placement should steer away from: offline
  /// cores plus cores whose sensor channel is suspect or quarantined.
  [[nodiscard]] sched::AffinityMask avoidMask() const {
    std::vector<CoreId> avoid;
    for (std::size_t c = 0; c < cores.size(); ++c) {
      if (!cores[c].online || cores[c].level > 0) {
        avoid.push_back(static_cast<CoreId>(c));
      }
    }
    if (avoid.empty()) return sched::AffinityMask{};
    return sched::AffinityMask::of(avoid);
  }
  /// Coarse health-axis coordinate for the Q-state: 0 = fully healthy,
  /// 1 = sensor degradation only (suspect/quarantined channels),
  /// 2 = at least one core offline. Clamp to the configured bin count.
  [[nodiscard]] std::size_t degradedLevel() const noexcept {
    if (offlineCount() > 0) return 2;
    for (const CoreHealth& core : cores) {
      if (core.level > 0) return 1;
    }
    return 0;
  }
};

struct PolicyContext {
  platform::Machine& machine;
  /// The workload under management (the WorkloadDriver in any mode, possibly
  /// behind the fault layer's gate); supplies the performance signal and
  /// enforces affinity.
  workload::WorkloadControl& workload;
  /// Per-core health published by a wrapping SafetySupervisor; null when the
  /// policy runs bare.
  const HealthSnapshot* health = nullptr;
};

class ThermalPolicy {
 public:
  virtual ~ThermalPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// How often onSample() should be called; <= 0 means never (static
  /// policies like plain Linux governors).
  [[nodiscard]] virtual Seconds samplingInterval() const { return 0.0; }

  /// Called once before the scenario starts.
  virtual void onStart(PolicyContext& /*ctx*/) {}

  /// Called every samplingInterval() with fresh sensor readings.
  virtual void onSample(PolicyContext& /*ctx*/, std::span<const Celsius> /*sensorTemps*/) {}

  /// Called when the workload switches applications, but ONLY for policies
  /// that receive an explicit application-layer signal (the "modified Ge"
  /// baseline). The proposed approach must detect switches autonomously and
  /// never relies on this hook.
  virtual void onAppSwitch(PolicyContext& /*ctx*/) {}

  /// Whether the runner should deliver onAppSwitch (explicit signalling).
  [[nodiscard]] virtual bool wantsAppSwitchSignal() const { return false; }
};

}  // namespace rltherm::core
