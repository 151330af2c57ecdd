#include "power/vf_table.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rltherm::power {
namespace {

TEST(VfTableTest, DefaultQuadCoreShape) {
  const VfTable table = VfTable::defaultQuadCore();
  EXPECT_EQ(table.size(), 5u);
  EXPECT_DOUBLE_EQ(table.lowest().frequency, 1.6e9);
  EXPECT_DOUBLE_EQ(table.highest().frequency, 3.4e9);
  EXPECT_DOUBLE_EQ(table.highest().voltage, 1.25);
}

TEST(VfTableTest, AscendingValidation) {
  EXPECT_THROW(VfTable({{2.0e9, 1.0}, {1.0e9, 1.1}}), PreconditionError);
  EXPECT_THROW(VfTable({{1.0e9, 1.1}, {2.0e9, 1.0}}), PreconditionError);
  EXPECT_THROW(VfTable({}), PreconditionError);
  EXPECT_THROW(VfTable({{0.0, 1.0}}), PreconditionError);
}

TEST(VfTableTest, CeilingFor) {
  const VfTable table = VfTable::defaultQuadCore();
  EXPECT_EQ(table.ceilingIndex(1.0e9), 0u);
  EXPECT_EQ(table.ceilingIndex(2.0e9), 1u);
  EXPECT_EQ(table.ceilingIndex(2.1e9), 2u);
  EXPECT_EQ(table.ceilingIndex(9.9e9), 4u);
}

TEST(VfTableTest, FloorFor) {
  const VfTable table = VfTable::defaultQuadCore();
  EXPECT_EQ(table.floorIndex(1.0e9), 0u);
  EXPECT_EQ(table.floorIndex(2.0e9), 1u);
  EXPECT_EQ(table.floorIndex(2.3e9), 1u);
  EXPECT_EQ(table.floorIndex(9.9e9), 4u);
}

TEST(VfTableTest, VoltageGrowsWithFrequency) {
  const VfTable table = VfTable::defaultQuadCore();
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_GT(table.point(i).voltage, table.point(i - 1).voltage);
  }
}

TEST(VfTableTest, SinglePointTable) {
  const VfTable table({{2.0e9, 1.0}});
  EXPECT_EQ(table.ceilingIndex(9e9), 0u);
  EXPECT_EQ(table.floorIndex(1e9), 0u);
}

}  // namespace
}  // namespace rltherm::power
