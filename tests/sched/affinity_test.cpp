#include "sched/affinity.hpp"

#include <gtest/gtest.h>

namespace rltherm::sched {
namespace {

TEST(AffinityMaskTest, EmptyByDefault) {
  const AffinityMask mask;
  EXPECT_TRUE(mask.empty());
  EXPECT_EQ(mask.count(), 0);
  EXPECT_FALSE(mask.allows(0));
}

TEST(AffinityMaskTest, AllCovers) {
  const AffinityMask mask = AffinityMask::all(4);
  EXPECT_EQ(mask.count(), 4);
  for (CoreId c = 0; c < 4; ++c) EXPECT_TRUE(mask.allows(c));
  EXPECT_FALSE(mask.allows(4));
}

TEST(AffinityMaskTest, AllThirtyTwo) {
  const AffinityMask mask = AffinityMask::all(32);
  EXPECT_EQ(mask.count(), 32);
  EXPECT_TRUE(mask.allows(31));
}

TEST(AffinityMaskTest, SinglePins) {
  const AffinityMask mask = AffinityMask::single(2);
  EXPECT_EQ(mask.count(), 1);
  EXPECT_TRUE(mask.allows(2));
  EXPECT_FALSE(mask.allows(0));
  EXPECT_FALSE(mask.allows(3));
}

TEST(AffinityMaskTest, OfCoreList) {
  const AffinityMask mask = AffinityMask::of({0, 3});
  EXPECT_EQ(mask.count(), 2);
  EXPECT_TRUE(mask.allows(0));
  EXPECT_FALSE(mask.allows(1));
  EXPECT_TRUE(mask.allows(3));
}

TEST(AffinityMaskTest, OfRejectsOutOfRange) {
  EXPECT_THROW(AffinityMask::of({-1}), PreconditionError);
  EXPECT_THROW(AffinityMask::of({32}), PreconditionError);
}

TEST(AffinityMaskTest, CoresRoundTrip) {
  const std::vector<CoreId> cores = {1, 2, 5};
  EXPECT_EQ(AffinityMask::of(cores).bits(), 0b100110u);
}

TEST(AffinityMaskTest, OutOfRangeAllowsFalse) {
  const AffinityMask mask = AffinityMask::all(4);
  EXPECT_FALSE(mask.allows(-1));
  EXPECT_FALSE(mask.allows(32));
}

TEST(AffinityMaskTest, Equality) {
  EXPECT_EQ(AffinityMask::of({0, 1}), AffinityMask::all(2));
  EXPECT_NE(AffinityMask::single(0), AffinityMask::single(1));
}

TEST(AffinityMaskTest, ToString) {
  EXPECT_EQ(AffinityMask::of({0, 2}).toString(), "{0,2}");
  EXPECT_EQ(AffinityMask().toString(), "{}");
}

}  // namespace
}  // namespace rltherm::sched
