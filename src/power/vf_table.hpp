// Voltage-frequency operating points (P-states) of the platform.
//
// Mirrors the cpufreq view of the paper's Intel quad-core: an ordered list of
// frequency steps, each with its minimum stable voltage. Governors pick
// frequencies; the table supplies the voltage that DVFS hardware would apply.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace rltherm::power {

struct OperatingPoint {
  Hertz frequency = 0.0;
  Volts voltage = 0.0;

  [[nodiscard]] bool operator==(const OperatingPoint&) const = default;
};

/// Immutable, ascending-frequency table of operating points.
class VfTable {
 public:
  /// Points must be non-empty, strictly ascending in both frequency and
  /// voltage, and strictly positive.
  explicit VfTable(std::vector<OperatingPoint> points);

  /// The default quad-core table: 1.6 GHz/0.900 V, 2.0 GHz/0.975 V,
  /// 2.4 GHz/1.050 V, 2.8 GHz/1.125 V, 3.4 GHz/1.250 V.
  [[nodiscard]] static VfTable defaultQuadCore();

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] const OperatingPoint& point(std::size_t i) const { return points_.at(i); }
  [[nodiscard]] std::span<const OperatingPoint> points() const noexcept { return points_; }

  [[nodiscard]] const OperatingPoint& lowest() const noexcept { return points_.front(); }
  [[nodiscard]] const OperatingPoint& highest() const noexcept { return points_.back(); }

  /// Index of the smallest operating point with frequency >= f (the point a
  /// governor requesting frequency f would get); the highest if f exceeds all.
  [[nodiscard]] std::size_t ceilingIndex(Hertz f) const noexcept;

  /// Index of the largest operating point with frequency <= f; the lowest if
  /// f is below all.
  [[nodiscard]] std::size_t floorIndex(Hertz f) const noexcept;

 private:
  std::vector<OperatingPoint> points_;
};

}  // namespace rltherm::power
