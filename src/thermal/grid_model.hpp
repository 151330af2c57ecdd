// The package thermal model: per-core junction cells, a shared heat
// spreader and a heat sink (HotSpot-class grid discretization), standing in
// for the paper's Intel quad-core platform.
//
// Cores sit row-major in 2 columns (the last row may hold one core); each
// core is an N x N block of cells, and a cell exists only under a core.
// Every cell connects vertically to the spreader and laterally to its right
// and lower neighbours; the spreader connects to the sink, which convects
// to ambient:
//
//     core0 -- core1        each cell --(R_v)--> spreader
//       |        |          spreader --(R_ss)--> sink
//     core2 -- core3        sink --(R_sa)--> ambient
//
// With N = 1 (one cell per core, the default plant) this is the compact
// lumped package. The builder's order is part of the contract, because the
// conductance sums depend on it: nodes are the cells in row-major die order,
// then the spreader, then the sink; edges are every cell's vertical edge,
// then spreader -> sink, then each cell's right and lower lateral edges in
// row-major order. That order reproduces the lumped network bit for bit.
// Finer grids resolve within-core hot spots (the hottest cell of a loaded
// core sits above its mean) while keeping the per-core aggregates.
//
// Default parameters are calibrated so that an idle chip sits ~6 C above
// ambient and a fully loaded chip (all cores at max frequency) reaches
// ~72 C core temperature with a core-local time constant of ~1.3 s, matching
// the temperature ranges and multi-second cycling the paper reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "thermal/rc_network.hpp"

namespace rltherm::thermal {

/// Per-CORE aggregates; the builder divides them among a core's cells so
/// that every resolution keeps the same totals.
struct GridThermalConfig {
  Celsius ambient = 25.0;

  double coreCapacitance = 0.8;       ///< J/K per core junction
  double spreaderCapacitance = 25.0;  ///< J/K
  double sinkCapacitance = 150.0;     ///< J/K

  double junctionToSpreader = 1.6;    ///< K/W per core (R_jc)
  double lateralResistance = 3.0;     ///< K/W between adjacent cores
  double spreaderToSink = 0.25;       ///< K/W (R_ss)
  double sinkToAmbient = 0.38;        ///< K/W (R_sa, convection)
};

class GridPackage {
 public:
  /// coreCount >= 1 cores, each an N x N block of cells with
  /// N = cellsPerCoreSide >= 1.
  GridPackage(const GridThermalConfig& config, std::size_t coreCount,
              std::size_t cellsPerCoreSide);

  [[nodiscard]] std::size_t coreCount() const noexcept { return coreCount_; }
  /// Bounding box of the die's cell grid (a partial last row leaves the
  /// cells under the missing core out).
  [[nodiscard]] std::size_t cellRows() const noexcept {
    return ((coreCount_ - 1) / kCoreColumns + 1) * side_;
  }
  [[nodiscard]] std::size_t cellCols() const noexcept {
    return std::min(coreCount_, kCoreColumns) * side_;
  }
  [[nodiscard]] std::size_t cellCount() const noexcept { return coreCells_.size(); }

  [[nodiscard]] RcNetwork& network() noexcept { return network_; }
  [[nodiscard]] const RcNetwork& network() const noexcept { return network_; }

  /// Input map for RcNetwork::prepare: column `core` spreads that core's
  /// power uniformly over its cells (weight 1 / cells per core).
  [[nodiscard]] const Matrix& inputMap() const noexcept { return inputMap_; }

  /// Prepare the network with the package's input map; step() then takes
  /// one power per core.
  void prepare(Seconds stepSize) { network_.prepare(stepSize, inputMap_); }

  /// Node index of the cell at (row, col) of the die grid; throws when no
  /// core covers that cell.
  [[nodiscard]] std::size_t cellNode(std::size_t row, std::size_t col) const;

  /// Node indices of a core's cells, row-major within its block.
  [[nodiscard]] std::span<const std::size_t> coreCells(std::size_t core) const;

  /// Per-node power vector from per-core powers: inputMap() * corePower.
  [[nodiscard]] std::vector<Watts> nodePower(std::span<const Watts> corePower) const;

  /// Mean and peak cell temperature of a core (the junction temperature
  /// itself at one cell per core).
  [[nodiscard]] Celsius coreMeanTemperature(std::size_t core) const;
  [[nodiscard]] Celsius corePeakTemperature(std::size_t core) const;

  /// Every core's mean and peak in one pass over the cells: mean[c] and
  /// peak[c] equal coreMeanTemperature(c) and corePeakTemperature(c) bit for
  /// bit. Both spans hold coreCount() values.
  void coreTemperatures(std::span<Celsius> mean, std::span<Celsius> peak) const;

  [[nodiscard]] std::size_t spreaderNode() const noexcept { return spreaderNode_; }
  [[nodiscard]] std::size_t sinkNode() const noexcept { return sinkNode_; }

 private:
  static constexpr std::size_t kCoreColumns = 2;

  /// Position of cell (row, col) in coreCells_, or coreCells_.size() when
  /// the cell lies outside the die or under no core.
  [[nodiscard]] std::size_t cellSlot(std::size_t row, std::size_t col) const noexcept;

  struct CoreTemps {
    Celsius mean;
    Celsius peak;
  };
  /// The one per-core reduction: the mean sums the cells in coreCells()
  /// order, the peak is their running max. `core` must be < coreCount().
  [[nodiscard]] CoreTemps reduceCore(std::size_t core) const;

  std::size_t coreCount_;
  std::size_t side_;
  RcNetwork network_;
  /// Cell node indices, core-major: core k's N*N cells are the stride
  /// [k*N*N, (k+1)*N*N).
  std::vector<std::size_t> coreCells_;
  Matrix inputMap_;
  std::size_t spreaderNode_ = 0;
  std::size_t sinkNode_ = 0;
};

}  // namespace rltherm::thermal
