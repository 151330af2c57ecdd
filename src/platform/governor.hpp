// In-kernel CPU frequency governors (cpufreq policies).
//
// These are compact re-implementations of the five Linux governors the paper
// uses as its action space: ondemand, conservative, performance, powersave
// and userspace. Each governor maps the recent utilization of a core to an
// operating point of the VfTable, named by its index (the P-state).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "power/vf_table.hpp"

namespace rltherm::platform {

enum class GovernorKind : int {
  Ondemand = 0,
  Conservative,
  Performance,
  Powersave,
  Userspace,
};

[[nodiscard]] std::string toString(GovernorKind kind);

/// Parameters for governor construction. `userspaceFrequency` is only
/// consulted for GovernorKind::Userspace.
struct GovernorSetting {
  GovernorKind kind = GovernorKind::Ondemand;
  Hertz userspaceFrequency = 0.0;

  [[nodiscard]] bool operator==(const GovernorSetting&) const = default;
  [[nodiscard]] std::string toString() const;
};

/// Frequency policy interface. decide() is called once per governor sampling
/// period with the utilization observed over that period.
class Governor {
 public:
  virtual ~Governor() = default;

  /// @param utilization  busy fraction of the core over the last period, [0,1]
  /// @param current      the core's current P-state (an index into the table)
  /// @returns the P-state the core should run at next period
  [[nodiscard]] virtual std::size_t decide(double utilization, std::size_t current) = 0;

  [[nodiscard]] virtual GovernorKind kind() const noexcept = 0;

  /// Reset internal state (e.g. on application switch).
  virtual void reset() {}
};

/// ondemand: jump to max when utilization exceeds `upThreshold`, otherwise
/// scale frequency proportionally to utilization (Pallipadi & Starikovskiy).
struct OndemandConfig {
  double upThreshold = 0.80;
};

/// conservative: step one P-state up/down when utilization crosses the
/// up/down thresholds — a gradual variant of ondemand.
struct ConservativeConfig {
  double upThreshold = 0.75;
  double downThreshold = 0.35;
};

/// Factory. The table reference must outlive the governor.
[[nodiscard]] std::unique_ptr<Governor> makeGovernor(const GovernorSetting& setting,
                                                     const power::VfTable& table);

}  // namespace rltherm::platform
