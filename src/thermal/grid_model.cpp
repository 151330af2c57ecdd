#include "thermal/grid_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace rltherm::thermal {

GridPackage::GridPackage(const GridThermalConfig& config, std::size_t coreCount,
                         std::size_t cellsPerCoreSide)
    : coreCount_(coreCount), side_(cellsPerCoreSide) {
  expects(coreCount >= 1, "GridPackage requires at least one core");
  expects(cellsPerCoreSide >= 1, "GridPackage: cellsPerCoreSide must be >= 1");
  constexpr std::size_t kMaxCells = std::numeric_limits<std::size_t>::max();
  expects(side_ <= kMaxCells / side_ && side_ * side_ <= kMaxCells / coreCount,
          "GridPackage: cell count overflows");

  const std::size_t cellsPerCore = side_ * side_;
  const std::size_t rows = cellRows();
  const std::size_t cols = cellCols();
  coreCells_.resize(coreCount * cellsPerCore);

  RcNetwork::Builder builder;
  builder.ambient(config.ambient);

  // Per-cell aggregates: N parallel vertical paths and N capacitance shares
  // reproduce the per-core totals.
  const double cellCapacitance = config.coreCapacitance / static_cast<double>(cellsPerCore);
  const double cellVerticalR = config.junctionToSpreader * static_cast<double>(cellsPerCore);
  // Lateral conductance between neighbouring cells: the core-to-core lateral
  // resistance crosses cellsPerCoreSide series cell-to-cell hops and is fed
  // by cellsPerCoreSide parallel rows, so per-hop R = R_core_lateral.
  const double cellLateralR = config.lateralResistance;

  // Visits the existing cells in row-major die order with their slot in
  // coreCells_.
  const auto forEachCell = [&](auto&& visit) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (const std::size_t slot = cellSlot(r, c); slot < coreCells_.size()) {
          visit(r, c, slot);
        }
      }
    }
  };

  // Node and edge order is the bit-identity contract (see the header).
  forEachCell([&](std::size_t r, std::size_t c, std::size_t slot) {
    coreCells_[slot] = builder.addNode(NodeSpec{
        .name = "cell_" + std::to_string(r) + "_" + std::to_string(c),
        .kind = NodeKind::Core,
        .capacitance = cellCapacitance,
        .resistanceToAmbient = std::nullopt,
    });
  });
  spreaderNode_ = builder.addNode(NodeSpec{
      .name = "spreader",
      .kind = NodeKind::Spreader,
      .capacitance = config.spreaderCapacitance,
      .resistanceToAmbient = std::nullopt,
  });
  sinkNode_ = builder.addNode(NodeSpec{
      .name = "sink",
      .kind = NodeKind::Sink,
      .capacitance = config.sinkCapacitance,
      .resistanceToAmbient = config.sinkToAmbient,
  });

  forEachCell([&](std::size_t, std::size_t, std::size_t slot) {
    builder.connect(coreCells_[slot], spreaderNode_, cellVerticalR);
  });
  builder.connect(spreaderNode_, sinkNode_, config.spreaderToSink);
  forEachCell([&](std::size_t r, std::size_t c, std::size_t slot) {
    if (const std::size_t right = cellSlot(r, c + 1); right < coreCells_.size()) {
      builder.connect(coreCells_[slot], coreCells_[right], cellLateralR);
    }
    if (const std::size_t below = cellSlot(r + 1, c); below < coreCells_.size()) {
      builder.connect(coreCells_[slot], coreCells_[below], cellLateralR);
    }
  });

  network_ = builder.build();
  inputMap_ = Matrix(network_.nodeCount(), coreCount);
  const double weight = 1.0 / static_cast<double>(cellsPerCore);
  for (std::size_t slot = 0; slot < coreCells_.size(); ++slot) {
    inputMap_(coreCells_[slot], slot / cellsPerCore) = weight;
  }
}

std::size_t GridPackage::cellSlot(std::size_t row, std::size_t col) const noexcept {
  if (row >= cellRows() || col >= cellCols()) return coreCells_.size();
  const std::size_t core = row / side_ * (cellCols() / side_) + col / side_;
  if (core >= coreCount_) return coreCells_.size();
  return (core * side_ + row % side_) * side_ + col % side_;
}

std::size_t GridPackage::cellNode(std::size_t row, std::size_t col) const {
  const std::size_t slot = cellSlot(row, col);
  expects(slot < coreCells_.size(), "cellNode: no cell at (row, col)");
  return coreCells_[slot];
}

std::span<const std::size_t> GridPackage::coreCells(std::size_t core) const {
  expects(core < coreCount_, "coreCells: core out of range");
  const std::size_t cellsPerCore = side_ * side_;
  return std::span<const std::size_t>(coreCells_).subspan(core * cellsPerCore, cellsPerCore);
}

std::vector<Watts> GridPackage::nodePower(std::span<const Watts> corePower) const {
  expects(corePower.size() == coreCount_, "nodePower: per-core power size mismatch");
  return inputMap_ * corePower;
}

inline GridPackage::CoreTemps GridPackage::reduceCore(std::size_t core) const {
  const std::size_t cellsPerCore = side_ * side_;
  RLTHERM_EXPECT(cellsPerCore > 0, "reduceCore: core must map to at least one cell");
  const std::size_t* cell = coreCells_.data() + core * cellsPerCore;
  const Celsius* temps = network_.temperatures().data();
  Celsius sum = temps[cell[0]];
  Celsius peak = sum;
  for (std::size_t i = 1; i < cellsPerCore; ++i) {
    const Celsius t = temps[cell[i]];
    sum += t;
    peak = std::max(peak, t);
  }
  const Celsius mean = sum / static_cast<double>(cellsPerCore);
  RLTHERM_ENSURE(std::isfinite(mean), "reduceCore: mean must be finite");
  return CoreTemps{.mean = mean, .peak = peak};
}

Celsius GridPackage::coreMeanTemperature(std::size_t core) const {
  expects(core < coreCount_, "coreMeanTemperature: core out of range");
  return reduceCore(core).mean;
}

Celsius GridPackage::corePeakTemperature(std::size_t core) const {
  expects(core < coreCount_, "corePeakTemperature: core out of range");
  return reduceCore(core).peak;
}

void GridPackage::coreTemperatures(std::span<Celsius> mean, std::span<Celsius> peak) const {
  expects(mean.size() == coreCount_ && peak.size() == coreCount_,
          "coreTemperatures: spans must hold one value per core");
  for (std::size_t core = 0; core < coreCount_; ++core) {
    const CoreTemps t = reduceCore(core);
    mean[core] = t.mean;
    peak[core] = t.peak;
  }
}

}  // namespace rltherm::thermal
