#include "thermal/grid_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "lumped_reference.hpp"

namespace rltherm::thermal {
namespace {

/// The default plant: the calibrated quad-core at one cell per core.
GridPackage lumpedQuadCore() { return GridPackage(GridThermalConfig{}, 4, 1); }

// --- the lumped quad-core package (one cell per core) ----------------------

TEST(QuadCoreTest, DefaultStructure) {
  const GridPackage pkg = lumpedQuadCore();
  EXPECT_EQ(pkg.coreCount(), 4u);
  EXPECT_EQ(pkg.network().nodeCount(), 6u);  // 4 cores + spreader + sink
  EXPECT_EQ(pkg.network().nodesOfKind(NodeKind::Core).size(), 4u);
  EXPECT_EQ(pkg.network().node(pkg.spreaderNode()).kind, NodeKind::Spreader);
  EXPECT_EQ(pkg.network().node(pkg.sinkNode()).kind, NodeKind::Sink);
  for (std::size_t core = 0; core < 4; ++core) {
    ASSERT_EQ(pkg.coreCells(core).size(), 1u);
    EXPECT_EQ(pkg.coreCells(core)[0], core);  // cores are nodes 0..3
  }
}

TEST(QuadCoreTest, UniformPowerGivesSymmetricCoreTemperatures) {
  GridPackage pkg = lumpedQuadCore();
  const std::vector<Watts> corePower(4, 5.0);
  pkg.network().setTemperatures(pkg.network().steadyState(pkg.nodePower(corePower)));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(pkg.coreMeanTemperature(0), pkg.coreMeanTemperature(i), 1e-9);
  }
}

TEST(QuadCoreTest, LoadedCoreIsHottest) {
  GridPackage pkg = lumpedQuadCore();
  const std::vector<Watts> corePower = {8.0, 1.0, 1.0, 1.0};
  const std::vector<Celsius> ss = pkg.network().steadyState(pkg.nodePower(corePower));
  pkg.network().setTemperatures(ss);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(pkg.coreMeanTemperature(0), pkg.coreMeanTemperature(i));
  }
  // Lateral coupling: the adjacent idle cores still sit above the spreader.
  EXPECT_GT(pkg.coreMeanTemperature(1), ss[pkg.spreaderNode()]);
}

TEST(QuadCoreTest, FullLoadSteadyStateInCalibratedRange) {
  // All four cores at max-frequency power (~8.3 W dynamic + ~2.5 W leakage)
  // should land near the calibrated ~70 C the paper's platform exhibits.
  GridPackage pkg = lumpedQuadCore();
  const std::vector<Watts> corePower(4, 10.8);
  pkg.network().setTemperatures(pkg.network().steadyState(pkg.nodePower(corePower)));
  EXPECT_GT(pkg.coreMeanTemperature(0), 60.0);
  EXPECT_LT(pkg.coreMeanTemperature(0), 80.0);
}

TEST(QuadCoreTest, IdleSteadyStateIsWarm) {
  GridPackage pkg = lumpedQuadCore();
  const std::vector<Watts> corePower(4, 1.3);
  pkg.network().setTemperatures(pkg.network().steadyState(pkg.nodePower(corePower)));
  EXPECT_GT(pkg.coreMeanTemperature(0), 28.0);
  EXPECT_LT(pkg.coreMeanTemperature(0), 36.0);
}

TEST(QuadCoreTest, NodePowerMapsCoresOnly) {
  const GridPackage pkg = lumpedQuadCore();
  const std::vector<Watts> corePower = {1.0, 2.0, 3.0, 4.0};
  const std::vector<Watts> nodePower = pkg.nodePower(corePower);
  EXPECT_DOUBLE_EQ(nodePower[pkg.coreCells(2)[0]], 3.0);
  EXPECT_DOUBLE_EQ(nodePower[pkg.spreaderNode()], 0.0);
  EXPECT_DOUBLE_EQ(nodePower[pkg.sinkNode()], 0.0);
}

TEST(QuadCoreTest, NodePowerSizeMismatchThrows) {
  const GridPackage pkg = lumpedQuadCore();
  const std::vector<Watts> wrong(3, 1.0);
  EXPECT_THROW(pkg.nodePower(wrong), PreconditionError);
}

TEST(QuadCoreTest, CoreTemperaturesTracksNetwork) {
  GridPackage pkg = lumpedQuadCore();
  pkg.network().setUniformTemperature(55.0);
  for (std::size_t core = 0; core < 4; ++core) {
    EXPECT_DOUBLE_EQ(pkg.coreMeanTemperature(core), 55.0);
    EXPECT_DOUBLE_EQ(pkg.corePeakTemperature(core), 55.0);
  }
}

TEST(QuadCoreTest, NonDefaultCoreCount) {
  const GridPackage pkg(GridThermalConfig{}, 2, 1);
  EXPECT_EQ(pkg.coreCount(), 2u);
  EXPECT_EQ(pkg.network().nodeCount(), 4u);
}

TEST(QuadCoreTest, ZeroCoresRejected) {
  EXPECT_THROW(GridPackage(GridThermalConfig{}, 0, 1), PreconditionError);
}

TEST(QuadCoreTest, TransientCoreTimeConstantIsFast) {
  // A power step on one core should move its junction temperature most of
  // the way to the local steady state within a few seconds (the calibrated
  // tau ~ R_jc * C_core ~ 1.3 s), while the sink barely moves.
  GridPackage pkg = lumpedQuadCore();
  pkg.prepare(0.01);
  const std::vector<Watts> corePower = {9.0, 1.0, 1.0, 1.0};
  const Celsius sinkBefore = pkg.network().temperature(pkg.sinkNode());
  for (int i = 0; i < 300; ++i) pkg.network().step(corePower);  // 3 seconds
  const Celsius coreRise = pkg.coreMeanTemperature(0) - 25.0;
  const Celsius sinkRise = pkg.network().temperature(pkg.sinkNode()) - sinkBefore;
  EXPECT_GT(coreRise, 8.0);
  EXPECT_LT(sinkRise, coreRise * 0.3);
}

// --- finer grids -----------------------------------------------------------

TEST(GridModelTest, DefaultStructure) {
  const GridPackage pkg(GridThermalConfig{}, 4, 2);
  EXPECT_EQ(pkg.coreCount(), 4u);
  EXPECT_EQ(pkg.cellRows(), 4u);
  EXPECT_EQ(pkg.cellCols(), 4u);
  EXPECT_EQ(pkg.cellCount(), 16u);
  EXPECT_EQ(pkg.network().nodeCount(), 18u);  // 16 cells + spreader + sink
  for (std::size_t core = 0; core < 4; ++core) {
    EXPECT_EQ(pkg.coreCells(core).size(), 4u);
  }
}

TEST(GridModelTest, CoarsestGridIsOneCellPerCore) {
  const GridPackage pkg = lumpedQuadCore();
  EXPECT_EQ(pkg.cellCount(), 4u);
  EXPECT_EQ(pkg.coreCells(0).size(), 1u);
}

TEST(GridModelTest, InvalidConfigRejected) {
  EXPECT_THROW(GridPackage(GridThermalConfig{}, 0, 2), PreconditionError);
  EXPECT_THROW(GridPackage(GridThermalConfig{}, 4, 0), PreconditionError);
  // N * N * cores must fit in std::size_t.
  EXPECT_THROW(GridPackage(GridThermalConfig{}, 4, std::size_t{1} << 32), PreconditionError);
  EXPECT_THROW(GridPackage(GridThermalConfig{}, std::size_t{1} << 40, std::size_t{1} << 12),
               PreconditionError);
}

TEST(GridModelTest, UniformPowerGivesSymmetricCores) {
  GridPackage pkg(GridThermalConfig{}, 4, 2);
  const std::vector<Watts> power(4, 6.0);
  const std::vector<Celsius> ss = pkg.network().steadyState(pkg.nodePower(power));
  pkg.network().setTemperatures(ss);
  for (std::size_t core = 1; core < 4; ++core) {
    EXPECT_NEAR(pkg.coreMeanTemperature(0), pkg.coreMeanTemperature(core), 1e-6);
  }
}

TEST(GridModelTest, CoarseGridMatchesLumpedModel) {
  // With one cell per core, the grid package IS the lumped network (same
  // nodes, parameters and order): the steady states agree exactly as
  // measured, asserted to within 4 ULPs.
  GridPackage grid = lumpedQuadCore();
  const RcNetwork lumped = buildLumpedReference(GridThermalConfig{}, 4);

  const std::vector<Watts> power = {9.0, 2.0, 5.0, 1.0};
  const std::vector<Celsius> gridSs = grid.network().steadyState(grid.nodePower(power));
  const std::vector<Celsius> lumpedSs = lumped.steadyState(lumpedInputMap(4) * power);
  grid.network().setTemperatures(gridSs);

  for (std::size_t core = 0; core < 4; ++core) {
    EXPECT_DOUBLE_EQ(grid.coreMeanTemperature(core), lumpedSs[core]) << "core " << core;
  }
}

TEST(GridModelTest, FineGridStaysNearLumpedAverages) {
  // Refining the grid must not change the core-average temperatures much
  // (same total capacitance, same vertical conductance).
  GridPackage coarse = lumpedQuadCore();
  GridPackage fine(GridThermalConfig{}, 4, 3);

  const std::vector<Watts> power = {9.0, 1.0, 1.0, 1.0};
  coarse.network().setTemperatures(
      coarse.network().steadyState(coarse.nodePower(power)));
  fine.network().setTemperatures(fine.network().steadyState(fine.nodePower(power)));

  EXPECT_NEAR(fine.coreMeanTemperature(0), coarse.coreMeanTemperature(0), 2.5);
  EXPECT_NEAR(fine.coreMeanTemperature(3), coarse.coreMeanTemperature(3), 2.5);
}

TEST(GridModelTest, HotSpotResolvedWithinLoadedCore) {
  // A loaded core's interior cells run hotter than its cells bordering an
  // idle neighbour; peak >= mean strictly under asymmetric load.
  GridPackage pkg(GridThermalConfig{}, 4, 3);
  const std::vector<Watts> power = {10.0, 0.5, 0.5, 0.5};
  pkg.network().setTemperatures(pkg.network().steadyState(pkg.nodePower(power)));
  EXPECT_GT(pkg.corePeakTemperature(0), pkg.coreMeanTemperature(0) + 0.05);
  EXPECT_GT(pkg.coreMeanTemperature(0), pkg.coreMeanTemperature(3));
}

TEST(GridModelTest, TransientSteppingWorks) {
  GridPackage pkg(GridThermalConfig{}, 4, 2);
  pkg.network().prepare(0.01);
  const std::vector<Watts> power = {8.0, 8.0, 1.0, 1.0};
  const std::vector<Watts> nodePower = pkg.nodePower(power);
  const Celsius before = pkg.coreMeanTemperature(0);
  for (int i = 0; i < 300; ++i) pkg.network().step(nodePower);
  EXPECT_GT(pkg.coreMeanTemperature(0), before + 5.0);
}

TEST(GridModelTest, NodePowerSpreadsUniformlyOverCells) {
  const GridPackage pkg(GridThermalConfig{}, 4, 2);
  const std::vector<Watts> power = {8.0, 0.0, 0.0, 0.0};
  const std::vector<Watts> nodePower = pkg.nodePower(power);
  for (const std::size_t cell : pkg.coreCells(0)) {
    EXPECT_DOUBLE_EQ(nodePower[cell], 2.0);  // 8 W over 4 cells
  }
  EXPECT_DOUBLE_EQ(nodePower[pkg.spreaderNode()], 0.0);
}

TEST(GridModelTest, CellNodeBoundsChecked) {
  const GridPackage pkg(GridThermalConfig{}, 4, 2);
  EXPECT_THROW((void)pkg.cellNode(4, 0), PreconditionError);
  EXPECT_THROW((void)pkg.coreCells(4), PreconditionError);
  const std::vector<Watts> wrong(3, 1.0);
  EXPECT_THROW(pkg.nodePower(wrong), PreconditionError);

  // Three cores leave the lower-right block of the die without cells.
  const GridPackage partial(GridThermalConfig{}, 3, 2);
  EXPECT_EQ(partial.cellNode(3, 1), partial.coreCells(2)[3]);
  EXPECT_THROW((void)partial.cellNode(2, 2), PreconditionError);
}

class GridResolutionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridResolutionSweep, TotalHeatBalancesAtSteadyState) {
  // Property, for full and partial rows of cores: at steady state, total
  // power in == power out through the sink (checked via the sink
  // temperature drop over the ambient resistance), and every core owns its
  // N x N block of cells, each cell under exactly one core.
  const GridThermalConfig config;
  const std::size_t side = GetParam();
  for (const std::size_t cores : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE("cores = " + std::to_string(cores));
    GridPackage pkg(config, cores, side);
    ASSERT_EQ(pkg.cellCount(), cores * side * side);
    ASSERT_EQ(pkg.network().nodeCount(), pkg.cellCount() + 2);
    EXPECT_EQ(pkg.cellCols(), std::min<std::size_t>(cores, 2) * side);
    EXPECT_EQ(pkg.cellRows(), (cores + 1) / 2 * side);
    std::vector<int> owners(pkg.cellCount(), 0);
    for (std::size_t core = 0; core < cores; ++core) {
      ASSERT_EQ(pkg.coreCells(core).size(), side * side);
      for (const std::size_t node : pkg.coreCells(core)) {
        ASSERT_LT(node, pkg.cellCount());
        ++owners[node];
      }
    }
    for (const int owner : owners) EXPECT_EQ(owner, 1);

    const std::vector<Watts> all = {7.0, 3.0, 2.0, 4.0};
    const std::vector<Watts> power(all.begin(), all.begin() + static_cast<long>(cores));
    double total = 0.0;
    for (const Watts p : power) total += p;
    const std::vector<Celsius> ss = pkg.network().steadyState(pkg.nodePower(power));
    const double sinkFlow = (ss[pkg.sinkNode()] - config.ambient) / config.sinkToAmbient;
    EXPECT_NEAR(sinkFlow, total, 1e-6);
  }
}

TEST_P(GridResolutionSweep, BulkCoreTemperaturesMatchPerCoreReads) {
  // coreTemperatures() fills every core's mean and peak in one pass; each
  // must equal the single-core reads bit for bit, and both must equal the
  // plain definition over coreCells(): the cell sum in that order divided
  // by the cell count, and the largest cell. Core counts 1..5 cover a full
  // and a partial last row of cores.
  const std::size_t side = GetParam();
  Rng rng(0xA66 + side);
  for (std::size_t cores = 1; cores <= 5; ++cores) {
    SCOPED_TRACE("cores = " + std::to_string(cores));
    GridPackage pkg(GridThermalConfig{}, cores, side);
    std::vector<Celsius> temps(pkg.network().nodeCount());
    for (Celsius& t : temps) t = rng.uniform(20.0, 95.0);
    pkg.network().setTemperatures(temps);

    std::vector<Celsius> mean(cores);
    std::vector<Celsius> peak(cores);
    pkg.coreTemperatures(mean, peak);
    for (std::size_t core = 0; core < cores; ++core) {
      const std::span<const std::size_t> cells = pkg.coreCells(core);
      Celsius sum = temps[cells.front()];
      Celsius hottest = temps[cells.front()];
      for (const std::size_t node : cells.subspan(1)) {
        sum += temps[node];
        hottest = std::max(hottest, temps[node]);
      }
      const Celsius expectedMean = sum / static_cast<double>(cells.size());
      const Celsius singleMean = pkg.coreMeanTemperature(core);
      const Celsius singlePeak = pkg.corePeakTemperature(core);
      EXPECT_EQ(0, std::memcmp(&mean[core], &singleMean, sizeof(Celsius))) << "core " << core;
      EXPECT_EQ(0, std::memcmp(&peak[core], &singlePeak, sizeof(Celsius))) << "core " << core;
      EXPECT_EQ(0, std::memcmp(&mean[core], &expectedMean, sizeof(Celsius))) << "core " << core;
      EXPECT_EQ(0, std::memcmp(&peak[core], &hottest, sizeof(Celsius))) << "core " << core;
    }
    std::vector<Celsius> shortSpan(cores - 1);
    EXPECT_THROW(pkg.coreTemperatures(shortSpan, peak), PreconditionError);
    EXPECT_THROW(pkg.coreTemperatures(mean, shortSpan), PreconditionError);
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GridResolutionSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace rltherm::thermal
