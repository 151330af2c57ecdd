// Energy accounting, standing in for likwid-powermeter on the real platform.
//
// The meter integrates dynamic and static (leakage) power separately so the
// benches can report the paper's "dynamic energy" and "static energy" rows.
#pragma once

#include "common/error.hpp"
#include "common/types.hpp"

namespace rltherm::power {

class EnergyMeter {
 public:
  /// Account one simulator step of duration dt with the given chip-wide
  /// dynamic and static power.
  void record(Watts dynamicPower, Watts staticPower, Seconds dt) {
    expects(dt >= 0.0, "EnergyMeter::record: negative duration");
    expects(dynamicPower >= 0.0 && staticPower >= 0.0, "EnergyMeter::record: negative power");
    dynamicEnergy_ += dynamicPower * dt;
    staticEnergy_ += staticPower * dt;
    elapsed_ += dt;
  }

  [[nodiscard]] Joules dynamicEnergy() const noexcept { return dynamicEnergy_; }
  [[nodiscard]] Joules staticEnergy() const noexcept { return staticEnergy_; }
  [[nodiscard]] Joules totalEnergy() const noexcept { return dynamicEnergy_ + staticEnergy_; }
  [[nodiscard]] Seconds elapsed() const noexcept { return elapsed_; }

  /// Mean power over the recorded interval (0 before any record()).
  [[nodiscard]] Watts averageDynamicPower() const noexcept;
  [[nodiscard]] Watts averageStaticPower() const noexcept;
  [[nodiscard]] Watts averageTotalPower() const noexcept;

  void reset() noexcept;

 private:
  Joules dynamicEnergy_ = 0.0;
  Joules staticEnergy_ = 0.0;
  Seconds elapsed_ = 0.0;
};

}  // namespace rltherm::power
