#include "power/power_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace rltherm::power {

DynamicPowerModel::DynamicPowerModel(DynamicPowerConfig config) : config_(config) {
  expects(config.effectiveCapacitance > 0.0, "Effective capacitance must be > 0");
  expects(config.idleActivity >= 0.0 && config.idleActivity <= 1.0,
          "Idle activity must be in [0, 1]");
}

Watts DynamicPowerModel::power(const OperatingPoint& op, double activity) const {
  expects(activity >= 0.0 && activity <= 1.0, "Activity must be in [0, 1]");
  const double effectiveActivity =
      config_.idleActivity + (1.0 - config_.idleActivity) * activity;
  const Watts p = config_.effectiveCapacitance * op.voltage * op.voltage *
                  op.frequency * effectiveActivity;
  RLTHERM_ENSURE(p >= 0.0 && std::isfinite(p),
                 "DynamicPowerModel: power must be finite and >= 0");
  return p;
}

LeakagePowerModel::LeakagePowerModel(LeakagePowerConfig config) : config_(config) {
  expects(config.nominalLeakage >= 0.0, "Nominal leakage must be >= 0");
  expects(config.referenceVoltage > 0.0, "Reference voltage must be > 0");
  expects(config.tempSensitivity >= 0.0, "Temperature sensitivity must be >= 0");
}

Watts LeakagePowerModel::power(Volts voltage, Celsius temperature) const {
  return powerScaled(voltageScale(voltage), temperature);
}

double LeakagePowerModel::voltageScale(Volts voltage) const {
  expects(voltage > 0.0, "Voltage must be > 0");
  return std::pow(voltage / config_.referenceVoltage, config_.voltageExponent);
}

Watts LeakagePowerModel::powerScaled(double voltageScale, Celsius temperature) const {
  const double tempScale =
      std::exp(config_.tempSensitivity * (temperature - config_.referenceTemp));
  const Watts p = config_.nominalLeakage * voltageScale * tempScale;
  RLTHERM_ENSURE(p >= 0.0 && std::isfinite(p),
                 "LeakagePowerModel: power must be finite and >= 0");
  return p;
}

}  // namespace rltherm::power
