// Test-side reference for the lumped package: the one-node-per-core network
// built directly with RcNetwork::Builder, so tests can pin
// GridPackage(config, n, 1) against it bit for bit.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "thermal/grid_model.hpp"
#include "thermal/rc_network.hpp"

namespace rltherm::thermal {

/// Order in which the reference adds its edges. The conductance diagonal is
/// a floating-point sum, so the order decides its last bits.
enum class LumpedEdgeOrder {
  /// Every core -> spreader, spreader -> sink, then each core's right and
  /// lower neighbour: the lumped package's contract order.
  VerticalFirst,
  /// Per core: core -> spreader, right, lower; spreader -> sink last. Not
  /// the contract; it rounds differently for some parameters (a canary).
  PerCellInterleaved,
};

/// Nodes core0 .. core{n-1}, then spreader, then sink; cores sit row-major
/// in 2 columns with lateral edges to the right and lower neighbours.
inline RcNetwork buildLumpedReference(const GridThermalConfig& config, std::size_t coreCount,
                                      LumpedEdgeOrder order = LumpedEdgeOrder::VerticalFirst) {
  RcNetwork::Builder builder;
  builder.ambient(config.ambient);
  for (std::size_t i = 0; i < coreCount; ++i) {
    builder.addNode(NodeSpec{.name = "core" + std::to_string(i),
                             .kind = NodeKind::Core,
                             .capacitance = config.coreCapacitance,
                             .resistanceToAmbient = std::nullopt});
  }
  const std::size_t spreader = builder.addNode(NodeSpec{.name = "spreader",
                                                        .kind = NodeKind::Spreader,
                                                        .capacitance = config.spreaderCapacitance,
                                                        .resistanceToAmbient = std::nullopt});
  const std::size_t sink = builder.addNode(NodeSpec{.name = "sink",
                                                    .kind = NodeKind::Sink,
                                                    .capacitance = config.sinkCapacitance,
                                                    .resistanceToAmbient = config.sinkToAmbient});

  constexpr std::size_t kColumns = 2;
  const auto connectLateral = [&](std::size_t i) {
    if (i % kColumns + 1 < kColumns && i + 1 < coreCount) {
      builder.connect(i, i + 1, config.lateralResistance);
    }
    if (i + kColumns < coreCount) builder.connect(i, i + kColumns, config.lateralResistance);
  };
  if (order == LumpedEdgeOrder::VerticalFirst) {
    for (std::size_t i = 0; i < coreCount; ++i) {
      builder.connect(i, spreader, config.junctionToSpreader);
    }
    builder.connect(spreader, sink, config.spreaderToSink);
    for (std::size_t i = 0; i < coreCount; ++i) connectLateral(i);
  } else {
    for (std::size_t i = 0; i < coreCount; ++i) {
      builder.connect(i, spreader, config.junctionToSpreader);
      connectLateral(i);
    }
    builder.connect(spreader, sink, config.spreaderToSink);
  }
  return builder.build();
}

/// The lumped input map: one unit column per core at its node.
inline Matrix lumpedInputMap(std::size_t coreCount) {
  Matrix map(coreCount + 2, coreCount);
  for (std::size_t core = 0; core < coreCount; ++core) map(core, core) = 1.0;
  return map;
}

}  // namespace rltherm::thermal
