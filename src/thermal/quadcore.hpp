// Standard quad-core package thermal network, standing in for the paper's
// Intel quad-core platform.
//
// Layout: four core junction nodes in a 2x2 grid with lateral coupling
// between adjacent cores, a shared heat spreader, and a heat sink with
// convection to ambient:
//
//     core0 -- core1        each core --(R_jc)--> spreader
//       |        |          spreader --(R_ss)--> sink
//     core2 -- core3        sink --(R_sa)--> ambient
//
// Default parameters are calibrated so that an idle chip sits ~6 C above
// ambient and a fully loaded chip (all cores at max frequency) reaches
// ~72 C core temperature with a core-local time constant of ~2 s, matching
// the temperature ranges and multi-second cycling the paper reports.
#pragma once

#include <cstddef>
#include <vector>

#include "thermal/rc_network.hpp"

namespace rltherm::thermal {

struct QuadCoreThermalConfig {
  std::size_t coreCount = 4;           ///< cores per row-major grid (2x2 when 4)
  Celsius ambient = 25.0;

  double coreCapacitance = 0.8;        ///< J/K per core junction
  double spreaderCapacitance = 25.0;   ///< J/K
  double sinkCapacitance = 150.0;      ///< J/K

  double junctionToSpreader = 1.6;     ///< K/W per core (R_jc)
  double lateralResistance = 3.0;      ///< K/W between adjacent cores
  double spreaderToSink = 0.25;        ///< K/W (R_ss)
  double sinkToAmbient = 0.38;         ///< K/W (R_sa, convection)
};

/// Handle bundling the network with the node indices of interest.
struct QuadCorePackage {
  RcNetwork network;
  std::vector<std::size_t> coreNodes;  ///< node index of each core junction
  std::size_t spreaderNode = 0;
  std::size_t sinkNode = 0;

  /// Current core junction temperatures, ordered by core id.
  [[nodiscard]] std::vector<Celsius> coreTemperatures() const;

  /// Input map for RcNetwork::prepare: one unit column per core, at the
  /// core's junction node.
  [[nodiscard]] Matrix inputMap() const;

  /// Prepare the network with the package's input map; step() then takes
  /// one power per core.
  void prepare(Seconds stepSize) { network.prepare(stepSize, inputMap()); }

  /// Full-length per-node power vector from per-core powers (spreader/sink
  /// nodes get zero power): inputMap() * corePower.
  [[nodiscard]] std::vector<Watts> nodePower(std::span<const Watts> corePower) const;
};

/// Builds the package network. coreCount must be >= 1; cores are laid out in
/// a 2-column grid with lateral resistances between horizontal and vertical
/// neighbours.
[[nodiscard]] QuadCorePackage buildQuadCorePackage(const QuadCoreThermalConfig& config);

}  // namespace rltherm::thermal
