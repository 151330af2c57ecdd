// Per-core power models.
//
// Dynamic power follows the classic switching model P = C_eff V^2 f u with u
// the core activity (utilization x workload switching intensity). Leakage is
// temperature-dependent with the usual exponential sensitivity, which closes
// the power-temperature feedback loop the paper's controller exploits (its
// "static energy" improvement comes from running cooler).
#pragma once

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

  /// @param op        operating point (voltage, frequency)
  /// @param activity  in [0, 1]; fraction of cycles doing real switching work
  [[nodiscard]] Watts power(const OperatingPoint& op, double activity) const;

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

  /// powerScaled(voltageScale(voltage), temperature), bit for bit.
  [[nodiscard]] Watts power(Volts voltage, Celsius temperature) const;

  /// The voltage factor (V/V0)^exp. It depends only on the operating point,
  /// so a caller stepping through a fixed VF table computes it once per
  /// P-state instead of calling std::pow every tick.
  [[nodiscard]] double voltageScale(Volts voltage) const;
  /// Leakage at `temperature` given a precomputed voltageScale().
  [[nodiscard]] Watts powerScaled(double voltageScale, Celsius temperature) const;

  [[nodiscard]] const LeakagePowerConfig& config() const noexcept { return config_; }

 private:
  LeakagePowerConfig config_;
};

}  // namespace rltherm::power
