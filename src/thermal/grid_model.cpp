#include "thermal/grid_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace rltherm::thermal {

GridPackage::GridPackage(const GridThermalConfig& config) : config_(config) {
  expects(config.coreRows >= 1 && config.coreCols >= 1,
          "GridPackage: core grid must be at least 1x1");
  expects(config.cellsPerCoreSide >= 1, "GridPackage: cellsPerCoreSide must be >= 1");

  const std::size_t rows = cellRows();
  const std::size_t cols = cellCols();
  const std::size_t cellsPerCore = config.cellsPerCoreSide * config.cellsPerCoreSide;

  RcNetwork::Builder builder;
  builder.ambient(config.ambient);

  // Per-cell aggregates: N parallel vertical paths and N capacitance shares
  // reproduce the per-core totals.
  const double cellCapacitance =
      config.coreCapacitance / static_cast<double>(cellsPerCore);
  const double cellVerticalR =
      config.junctionToSpreader * static_cast<double>(cellsPerCore);
  // Lateral conductance between neighbouring cells: the core-to-core lateral
  // resistance crosses cellsPerCoreSide series cell-to-cell hops and is fed
  // by cellsPerCoreSide parallel rows, so per-hop R = R_core_lateral.
  const double cellLateralR = config.lateralResistance;

  cellNodes_.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      cellNodes_[r * cols + c] = builder.addNode(NodeSpec{
          .name = "cell_" + std::to_string(r) + "_" + std::to_string(c),
          .kind = NodeKind::Core,
          .capacitance = cellCapacitance,
          .resistanceToAmbient = std::nullopt,
      });
    }
  }
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

  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t node = cellNodes_[r * cols + c];
      builder.connect(node, spreaderNode_, cellVerticalR);
      if (c + 1 < cols) builder.connect(node, cellNodes_[r * cols + c + 1], cellLateralR);
      if (r + 1 < rows) builder.connect(node, cellNodes_[(r + 1) * cols + c], cellLateralR);
    }
  }
  builder.connect(spreaderNode_, sinkNode_, config.spreaderToSink);

  // Core -> cell block mapping.
  coreCells_.resize(coreCount());
  for (std::size_t coreRow = 0; coreRow < config.coreRows; ++coreRow) {
    for (std::size_t coreCol = 0; coreCol < config.coreCols; ++coreCol) {
      const std::size_t core = coreRow * config.coreCols + coreCol;
      for (std::size_t dr = 0; dr < config.cellsPerCoreSide; ++dr) {
        for (std::size_t dc = 0; dc < config.cellsPerCoreSide; ++dc) {
          const std::size_t r = coreRow * config.cellsPerCoreSide + dr;
          const std::size_t c = coreCol * config.cellsPerCoreSide + dc;
          coreCells_[core].push_back(cellNodes_[r * cols + c]);
        }
      }
    }
  }

  network_ = builder.build();
  inputMap_ = Matrix(network_.nodeCount(), coreCount());
  for (std::size_t core = 0; core < coreCells_.size(); ++core) {
    for (const std::size_t node : coreCells_[core]) {
      inputMap_(node, core) = 1.0 / static_cast<double>(cellsPerCore);
    }
  }
}

std::size_t GridPackage::cellNode(std::size_t row, std::size_t col) const {
  expects(row < cellRows() && col < cellCols(), "cellNode: out of range");
  return cellNodes_[row * cellCols() + col];
}

const std::vector<std::size_t>& GridPackage::coreCells(std::size_t core) const {
  expects(core < coreCells_.size(), "coreCells: core out of range");
  return coreCells_[core];
}

std::vector<Watts> GridPackage::nodePower(std::span<const Watts> corePower) const {
  expects(corePower.size() == coreCount(), "nodePower: per-core power size mismatch");
  return inputMap_ * corePower;
}

Celsius GridPackage::coreMeanTemperature(std::size_t core) const {
  const std::vector<std::size_t>& cells = coreCells(core);
  RLTHERM_EXPECT(!cells.empty(),
                 "coreMeanTemperature: core must map to at least one cell");
  double sum = 0.0;
  for (const std::size_t node : cells) sum += network_.temperature(node);
  const Celsius mean = sum / static_cast<double>(cells.size());
  RLTHERM_ENSURE(std::isfinite(mean),
                 "coreMeanTemperature: mean must be finite");
  return mean;
}

Celsius GridPackage::corePeakTemperature(std::size_t core) const {
  const std::vector<std::size_t>& cells = coreCells(core);
  RLTHERM_EXPECT(!cells.empty(),
                 "corePeakTemperature: core must map to at least one cell");
  Celsius peak = network_.temperature(cells.front());
  for (const std::size_t node : cells) {
    peak = std::max(peak, network_.temperature(node));
  }
  return peak;
}

}  // namespace rltherm::thermal
