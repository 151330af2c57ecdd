#include "power/vf_table.hpp"

#include <utility>

#include "common/error.hpp"

namespace rltherm::power {

VfTable::VfTable(std::vector<OperatingPoint> points) : points_(std::move(points)) {
  expects(!points_.empty(), "VfTable requires at least one operating point");
  for (std::size_t i = 0; i < points_.size(); ++i) {
    expects(points_[i].frequency > 0.0 && points_[i].voltage > 0.0,
            "VfTable operating points must be positive");
    if (i > 0) {
      expects(points_[i].frequency > points_[i - 1].frequency &&
                  points_[i].voltage > points_[i - 1].voltage,
              "VfTable points must be strictly ascending in frequency and voltage");
    }
  }
}

VfTable VfTable::defaultQuadCore() {
  return VfTable({
      {1.6e9, 0.900},
      {2.0e9, 0.975},
      {2.4e9, 1.050},
      {2.8e9, 1.125},
      {3.4e9, 1.250},
  });
}

std::size_t VfTable::ceilingIndex(Hertz f) const noexcept {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].frequency >= f) return i;
  }
  return points_.size() - 1;
}

std::size_t VfTable::floorIndex(Hertz f) const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].frequency <= f) best = i;
  }
  return best;
}

}  // namespace rltherm::power
