// Finer-grained die thermal model (HotSpot-class grid discretization).
//
// The lumped quad-core package (quadcore.hpp) models one RC node per core.
// This module discretizes the die into an R x C grid of cells, maps each
// core onto a rectangular block of cells, and connects every cell vertically
// to the shared spreader and laterally to its grid neighbours. The result is
// the same RcNetwork machinery (exact matrix-exponential stepping, LU
// steady-state) at a configurable resolution, which:
//  - resolves within-core hot spots (the hottest cell of a loaded core sits
//    above the lumped estimate),
//  - converges to the lumped model as the grid coarsens (validated in the
//    tests), and
//  - demonstrates the simulator scales beyond one-node-per-core abstractions
//    (the related-work concern about RC model solvability).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "thermal/rc_network.hpp"

namespace rltherm::thermal {

struct GridThermalConfig {
  std::size_t coreRows = 2;     ///< cores arranged coreRows x coreCols
  std::size_t coreCols = 2;
  std::size_t cellsPerCoreSide = 2;  ///< each core is an NxN block of cells

  Celsius ambient = 25.0;

  /// Per-CORE aggregates; divided among the core's cells so that a uniform
  /// grid reproduces the lumped quadcore package.
  double coreCapacitance = 0.8;       ///< J/K
  double junctionToSpreader = 1.6;    ///< K/W vertical (whole core)
  double lateralResistance = 3.0;     ///< K/W between adjacent cores

  double spreaderCapacitance = 25.0;  ///< J/K
  double sinkCapacitance = 150.0;     ///< J/K
  double spreaderToSink = 0.25;       ///< K/W
  double sinkToAmbient = 0.38;        ///< K/W
};

class GridPackage {
 public:
  explicit GridPackage(const GridThermalConfig& config);

  [[nodiscard]] std::size_t coreCount() const noexcept {
    return config_.coreRows * config_.coreCols;
  }
  [[nodiscard]] std::size_t cellRows() const noexcept {
    return config_.coreRows * config_.cellsPerCoreSide;
  }
  [[nodiscard]] std::size_t cellCols() const noexcept {
    return config_.coreCols * config_.cellsPerCoreSide;
  }
  [[nodiscard]] std::size_t cellCount() const noexcept {
    return cellRows() * cellCols();
  }

  [[nodiscard]] RcNetwork& network() noexcept { return network_; }
  [[nodiscard]] const RcNetwork& network() const noexcept { return network_; }

  /// Input map for RcNetwork::prepare: column `core` spreads that core's
  /// power uniformly over its cells (weight 1 / cells per core).
  [[nodiscard]] const Matrix& inputMap() const noexcept { return inputMap_; }

  /// Prepare the network with the package's input map; step() then takes
  /// one power per core.
  void prepare(Seconds stepSize) { network_.prepare(stepSize, inputMap_); }

  /// Node index of the cell at (row, col) of the die grid.
  [[nodiscard]] std::size_t cellNode(std::size_t row, std::size_t col) const;

  /// Indices of the cells belonging to a core.
  [[nodiscard]] const std::vector<std::size_t>& coreCells(std::size_t core) const;

  /// Per-node power vector from per-core powers: inputMap() * corePower.
  [[nodiscard]] std::vector<Watts> nodePower(std::span<const Watts> corePower) const;

  /// Mean and peak cell temperature of a core.
  [[nodiscard]] Celsius coreMeanTemperature(std::size_t core) const;
  [[nodiscard]] Celsius corePeakTemperature(std::size_t core) const;

  [[nodiscard]] std::size_t spreaderNode() const noexcept { return spreaderNode_; }
  [[nodiscard]] std::size_t sinkNode() const noexcept { return sinkNode_; }

 private:
  GridThermalConfig config_;
  RcNetwork network_;
  std::vector<std::size_t> cellNodes_;             // row-major grid
  std::vector<std::vector<std::size_t>> coreCells_;
  Matrix inputMap_;
  std::size_t spreaderNode_ = 0;
  std::size_t sinkNode_ = 0;
};

}  // namespace rltherm::thermal
