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
  const Watts p = switchedPower(op) * effectiveActivity(activity);
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
  const Watts p = referencePower(voltage) * temperatureScale(temperature);
  RLTHERM_ENSURE(p >= 0.0 && std::isfinite(p),
                 "LeakagePowerModel: power must be finite and >= 0");
  return p;
}

Watts LeakagePowerModel::referencePower(Volts voltage) const {
  expects(voltage > 0.0, "Voltage must be > 0");
  return config_.nominalLeakage *
         std::pow(voltage / config_.referenceVoltage, config_.voltageExponent);
}

PStatePower::PStatePower(const VfTable& table, const DynamicPowerModel& dynamic,
                         const LeakagePowerModel& leakage)
    : dynamic_(dynamic), leakage_(leakage) {
  points_.reserve(table.size());
  for (const OperatingPoint& op : table.points()) {
    points_.push_back({.switched = dynamic.switchedPower(op),
                       .leakageAtReference = leakage.referencePower(op.voltage)});
  }
}

}  // namespace rltherm::power
