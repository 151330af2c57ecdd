#include "thermal/quadcore.hpp"

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace rltherm::thermal {

std::vector<Celsius> QuadCorePackage::coreTemperatures() const {
  std::vector<Celsius> out;
  out.reserve(coreNodes.size());
  for (const std::size_t node : coreNodes) out.push_back(network.temperature(node));
  RLTHERM_ENSURE(out.size() == coreNodes.size(),
                 "coreTemperatures: one reading per core node");
  return out;
}

Matrix QuadCorePackage::inputMap() const {
  RLTHERM_EXPECT(!coreNodes.empty(), "inputMap: package has no cores");
  Matrix map(network.nodeCount(), coreNodes.size());
  for (std::size_t core = 0; core < coreNodes.size(); ++core) map(coreNodes[core], core) = 1.0;
  return map;
}

std::vector<Watts> QuadCorePackage::nodePower(std::span<const Watts> corePower) const {
  expects(corePower.size() == coreNodes.size(), "nodePower: per-core power size mismatch");
  return inputMap() * corePower;
}

QuadCorePackage buildQuadCorePackage(const QuadCoreThermalConfig& config) {
  expects(config.coreCount >= 1, "QuadCorePackage requires at least one core");
  RcNetwork::Builder builder;
  builder.ambient(config.ambient);

  QuadCorePackage package;
  package.coreNodes.reserve(config.coreCount);
  for (std::size_t i = 0; i < config.coreCount; ++i) {
    package.coreNodes.push_back(builder.addNode(NodeSpec{
        .name = "core" + std::to_string(i),
        .kind = NodeKind::Core,
        .capacitance = config.coreCapacitance,
        .resistanceToAmbient = std::nullopt,
    }));
  }
  package.spreaderNode = builder.addNode(NodeSpec{
      .name = "spreader",
      .kind = NodeKind::Spreader,
      .capacitance = config.spreaderCapacitance,
      .resistanceToAmbient = std::nullopt,
  });
  package.sinkNode = builder.addNode(NodeSpec{
      .name = "sink",
      .kind = NodeKind::Sink,
      .capacitance = config.sinkCapacitance,
      .resistanceToAmbient = config.sinkToAmbient,
  });

  for (std::size_t i = 0; i < config.coreCount; ++i) {
    builder.connect(package.coreNodes[i], package.spreaderNode, config.junctionToSpreader);
  }
  builder.connect(package.spreaderNode, package.sinkNode, config.spreaderToSink);

  // Lateral coupling on a 2-column grid: right neighbour and below neighbour.
  constexpr std::size_t kColumns = 2;
  for (std::size_t i = 0; i < config.coreCount; ++i) {
    const std::size_t row = i / kColumns;
    const std::size_t col = i % kColumns;
    if (col + 1 < kColumns && i + 1 < config.coreCount) {
      builder.connect(package.coreNodes[i], package.coreNodes[i + 1],
                      config.lateralResistance);
    }
    const std::size_t below = (row + 1) * kColumns + col;
    if (below < config.coreCount) {
      builder.connect(package.coreNodes[i], package.coreNodes[below],
                      config.lateralResistance);
    }
  }

  package.network = builder.build();
  return package;
}

}  // namespace rltherm::thermal
