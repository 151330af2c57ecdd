// Per-core power models.
//
// Dynamic power follows the classic switching model P = C_eff V^2 f u with u
// the core activity (utilization x workload switching intensity). Leakage is
// temperature-dependent with the usual exponential sensitivity, which closes
// the power-temperature feedback loop the paper's controller exploits (its
// "static energy" improvement comes from running cooler).
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "power/vf_table.hpp"

namespace rltherm::power {

struct DynamicPowerConfig {
  /// Effective switched capacitance (F). The default gives ~8.3 W at
  /// 3.4 GHz / 1.25 V / full activity, in line with a per-core budget of a
  /// mid-2010s quad-core desktop part.
  double effectiveCapacitance = 1.56e-9;
  /// Activity floor of a clocked but idle core (clock tree, uncore share).
  double idleActivity = 0.05;
};

class DynamicPowerModel {
 public:
  explicit DynamicPowerModel(DynamicPowerConfig config = {});

  /// switchedPower(op) * effectiveActivity(activity).
  /// @param op        operating point (voltage, frequency)
  /// @param activity  in [0, 1]; fraction of cycles doing real switching work
  [[nodiscard]] Watts power(const OperatingPoint& op, double activity) const;

  /// C_eff * V^2 * f: the power at effective activity 1.
  [[nodiscard]] Watts switchedPower(const OperatingPoint& op) const noexcept {
    return config_.effectiveCapacitance * op.voltage * op.voltage * op.frequency;
  }
  /// The idle floor plus the activity's share of the remainder.
  [[nodiscard]] double effectiveActivity(double activity) const noexcept {
    return config_.idleActivity + (1.0 - config_.idleActivity) * activity;
  }

  [[nodiscard]] const DynamicPowerConfig& config() const noexcept { return config_; }

 private:
  DynamicPowerConfig config_;
};

struct LeakagePowerConfig {
  Watts nominalLeakage = 1.0;       ///< leakage at (referenceTemp, referenceVoltage)
  Celsius referenceTemp = 25.0;
  Volts referenceVoltage = 1.25;
  double tempSensitivity = 0.02;    ///< 1/K exponential slope
  double voltageExponent = 1.5;     ///< leakage ~ (V/V0)^exp
};

class LeakagePowerModel {
 public:
  explicit LeakagePowerModel(LeakagePowerConfig config = {});

  /// referencePower(voltage) * temperatureScale(temperature).
  [[nodiscard]] Watts power(Volts voltage, Celsius temperature) const;

  /// P0 * (V/V0)^exp: the leakage at the reference temperature. It depends
  /// only on the operating point, so a caller stepping through a fixed VF
  /// table computes it once per P-state instead of calling std::pow every
  /// tick.
  [[nodiscard]] Watts referencePower(Volts voltage) const;
  /// exp(k * (T - T0)).
  [[nodiscard]] double temperatureScale(Celsius temperature) const noexcept {
    return std::exp(config_.tempSensitivity * (temperature - config_.referenceTemp));
  }

  [[nodiscard]] const LeakagePowerConfig& config() const noexcept { return config_; }

 private:
  LeakagePowerConfig config_;
};

/// Both models tabulated over the P-states of a VF table. switchedPower()
/// and referencePower() are computed once per point; dynamic() and leakage()
/// finish each product in the models' left-to-right order and then apply a
/// per-core `scale`, so they equal `model.power(...) * scale` bit for bit.
class PStatePower {
 public:
  PStatePower(const VfTable& table, const DynamicPowerModel& dynamic,
              const LeakagePowerModel& leakage);

  /// dynamic.power(table.point(pstate), activity) * scale.
  [[nodiscard]] Watts dynamic(std::size_t pstate, double activity, double scale) const noexcept {
    return points_[pstate].switched * dynamic_.effectiveActivity(activity) * scale;
  }
  /// leakage.power(table.point(pstate).voltage, temperature) * scale.
  [[nodiscard]] Watts leakage(std::size_t pstate, Celsius temperature,
                              double scale) const noexcept {
    return points_[pstate].leakageAtReference * leakage_.temperatureScale(temperature) * scale;
  }

 private:
  struct Point {
    Watts switched = 0.0;
    Watts leakageAtReference = 0.0;
  };
  DynamicPowerModel dynamic_;
  LeakagePowerModel leakage_;
  std::vector<Point> points_;
};

}  // namespace rltherm::power
