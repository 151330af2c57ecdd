#include "power/energy_meter.hpp"

#include "common/error.hpp"

namespace rltherm::power {

Watts EnergyMeter::averageDynamicPower() const noexcept {
  return elapsed_ > 0.0 ? dynamicEnergy_ / elapsed_ : 0.0;
}

Watts EnergyMeter::averageStaticPower() const noexcept {
  return elapsed_ > 0.0 ? staticEnergy_ / elapsed_ : 0.0;
}

Watts EnergyMeter::averageTotalPower() const noexcept {
  return elapsed_ > 0.0 ? totalEnergy() / elapsed_ : 0.0;
}

void EnergyMeter::reset() noexcept {
  dynamicEnergy_ = 0.0;
  staticEnergy_ = 0.0;
  elapsed_ = 0.0;
}

}  // namespace rltherm::power
