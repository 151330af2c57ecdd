#include "thermal/grid_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "thermal/quadcore.hpp"

namespace rltherm::thermal {
namespace {

TEST(GridModelTest, DefaultStructure) {
  const GridPackage pkg(GridThermalConfig{});
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
  GridThermalConfig config;
  config.cellsPerCoreSide = 1;
  const GridPackage pkg(config);
  EXPECT_EQ(pkg.cellCount(), 4u);
  EXPECT_EQ(pkg.coreCells(0).size(), 1u);
}

TEST(GridModelTest, InvalidConfigRejected) {
  GridThermalConfig config;
  config.coreRows = 0;
  EXPECT_THROW(GridPackage{config}, PreconditionError);
  config = GridThermalConfig{};
  config.cellsPerCoreSide = 0;
  EXPECT_THROW(GridPackage{config}, PreconditionError);
}

TEST(GridModelTest, UniformPowerGivesSymmetricCores) {
  GridPackage pkg(GridThermalConfig{});
  const std::vector<Watts> power(4, 6.0);
  const std::vector<Celsius> ss = pkg.network().steadyState(pkg.nodePower(power));
  pkg.network().setTemperatures(ss);
  for (std::size_t core = 1; core < 4; ++core) {
    EXPECT_NEAR(pkg.coreMeanTemperature(0), pkg.coreMeanTemperature(core), 1e-6);
  }
}

TEST(GridModelTest, CoarseGridMatchesLumpedModel) {
  // With one cell per core, the grid package IS the lumped quadcore network
  // (same nodes, parameters and order): the steady states agree exactly as
  // measured, asserted to within 4 ULPs.
  GridThermalConfig gridConfig;
  gridConfig.cellsPerCoreSide = 1;
  GridPackage grid(gridConfig);

  QuadCoreThermalConfig lumpedConfig;  // defaults match GridThermalConfig's
  QuadCorePackage lumped = buildQuadCorePackage(lumpedConfig);

  const std::vector<Watts> power = {9.0, 2.0, 5.0, 1.0};
  const std::vector<Celsius> gridSs = grid.network().steadyState(grid.nodePower(power));
  const std::vector<Celsius> lumpedSs =
      lumped.network.steadyState(lumped.nodePower(power));
  grid.network().setTemperatures(gridSs);

  for (std::size_t core = 0; core < 4; ++core) {
    EXPECT_DOUBLE_EQ(grid.coreMeanTemperature(core), lumpedSs[lumped.coreNodes[core]])
        << "core " << core;
  }
}

TEST(GridModelTest, FineGridStaysNearLumpedAverages) {
  // Refining the grid must not change the core-average temperatures much
  // (same total capacitance, same vertical conductance).
  GridThermalConfig coarseConfig;
  coarseConfig.cellsPerCoreSide = 1;
  GridThermalConfig fineConfig;
  fineConfig.cellsPerCoreSide = 3;
  GridPackage coarse(coarseConfig);
  GridPackage fine(fineConfig);

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
  GridThermalConfig config;
  config.cellsPerCoreSide = 3;
  GridPackage pkg(config);
  const std::vector<Watts> power = {10.0, 0.5, 0.5, 0.5};
  pkg.network().setTemperatures(pkg.network().steadyState(pkg.nodePower(power)));
  EXPECT_GT(pkg.corePeakTemperature(0), pkg.coreMeanTemperature(0) + 0.05);
  EXPECT_GT(pkg.coreMeanTemperature(0), pkg.coreMeanTemperature(3));
}

TEST(GridModelTest, TransientSteppingWorks) {
  GridPackage pkg(GridThermalConfig{});
  pkg.network().prepare(0.01);
  const std::vector<Watts> power = {8.0, 8.0, 1.0, 1.0};
  const std::vector<Watts> nodePower = pkg.nodePower(power);
  const Celsius before = pkg.coreMeanTemperature(0);
  for (int i = 0; i < 300; ++i) pkg.network().step(nodePower);
  EXPECT_GT(pkg.coreMeanTemperature(0), before + 5.0);
}

TEST(GridModelTest, NodePowerSpreadsUniformlyOverCells) {
  const GridPackage pkg(GridThermalConfig{});
  const std::vector<Watts> power = {8.0, 0.0, 0.0, 0.0};
  const std::vector<Watts> nodePower = pkg.nodePower(power);
  for (const std::size_t cell : pkg.coreCells(0)) {
    EXPECT_DOUBLE_EQ(nodePower[cell], 2.0);  // 8 W over 4 cells
  }
  EXPECT_DOUBLE_EQ(nodePower[pkg.spreaderNode()], 0.0);
}

TEST(GridModelTest, CellNodeBoundsChecked) {
  const GridPackage pkg(GridThermalConfig{});
  EXPECT_THROW((void)pkg.cellNode(4, 0), PreconditionError);
  EXPECT_THROW((void)pkg.coreCells(4), PreconditionError);
  const std::vector<Watts> wrong(3, 1.0);
  EXPECT_THROW(pkg.nodePower(wrong), PreconditionError);
}

class GridResolutionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridResolutionSweep, TotalHeatBalancesAtSteadyState) {
  // Property: at steady state, total power in == power out through the sink
  // (checked via the sink temperature drop over the ambient resistance).
  GridThermalConfig config;
  config.cellsPerCoreSide = GetParam();
  GridPackage pkg(config);
  const std::vector<Watts> power = {7.0, 3.0, 2.0, 4.0};
  const std::vector<Celsius> ss = pkg.network().steadyState(pkg.nodePower(power));
  const double sinkFlow = (ss[pkg.sinkNode()] - config.ambient) / config.sinkToAmbient;
  EXPECT_NEAR(sinkFlow, 16.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GridResolutionSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace rltherm::thermal
