// Tests of the benchmark's own arithmetic: the ten-beyond percentile rule,
// span self time, and seed -> identical inputs.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

std::vector<double> oneTo(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(minSamplesFor(0.95), 200U);
  EXPECT_EQ(minSamplesFor(0.50), 20U);
  EXPECT_EQ(minSamplesFor(0.25), 41U);
  EXPECT_FALSE(tailPercentile(oneTo(199), 0.95).has_value());
  ASSERT_TRUE(tailPercentile(oneTo(200), 0.95).has_value());
  EXPECT_EQ(*tailPercentile(oneTo(200), 0.95), 190.0);  // 10 samples above 190
  EXPECT_FALSE(tailPercentile(oneTo(19), 0.50).has_value());
  EXPECT_EQ(*tailPercentile(oneTo(20), 0.50), 10.0);
  EXPECT_FALSE(tailPercentile({}, 0.50).has_value());
}

TEST(TailPercentile, LowPercentilesCountTheSamplesBelow) {
  EXPECT_FALSE(tailPercentile(oneTo(40), 0.25).has_value());
  EXPECT_EQ(*tailPercentile(oneTo(41), 0.25), 11.0);  // 10 samples below 11
  EXPECT_FALSE(tailPercentile(oneTo(100), 0.10).has_value());
  EXPECT_EQ(*tailPercentile(oneTo(101), 0.10), 11.0);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = oneTo(400);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(*tailPercentile(v, 0.95), 380.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(LayerTimes, SelfTimeIsSpanMinusChildren) {
  // loop [0,100] > tick [10,30], sample [40,70] > epoch [50,60]; second run
  // loop [200,260] > tick [210,250].
  const std::vector<Span> spans = {
      {kLoop, Span::kNoParent, 0, 0, 100}, {kTick, 0, 0, 10, 30},
      {kSample, 0, 0, 40, 70},             {kEpoch, 2, 0, 50, 60},
      {kLoop, Span::kNoParent, 1, 200, 260}, {kTick, 4, 1, 210, 250},
  };
  const auto layers = layerTimes(spans);
  EXPECT_EQ(layers[kLoop].calls, 2U);
  EXPECT_EQ(layers[kLoop].totalNs, 160);
  EXPECT_EQ(layers[kLoop].selfNs, (100 - 20 - 30) + (60 - 40));
  EXPECT_EQ(layers[kTick].selfNs, 60);
  EXPECT_EQ(layers[kSample].totalNs, 30);
  EXPECT_EQ(layers[kSample].selfNs, 20);
  EXPECT_EQ(layers[kEpoch].selfNs, 10);
  EXPECT_EQ(layers[kRestore].calls, 0U);
}

TEST(SpanTrace, NestsAndConservesRootTime) {
  SpanTrace trace;
  trace.setRun(7);
  trace.open(kLoop);
  trace.open(kTick);
  trace.close();
  trace.open(kSample);
  trace.open(kReadSensors);
  trace.close();
  trace.close(kEpoch);
  trace.close();
  const std::vector<Span>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4U);
  EXPECT_EQ(spans[0].parent, Span::kNoParent);
  EXPECT_EQ(spans[1].parent, 0U);
  EXPECT_EQ(spans[2].layer, static_cast<std::uint32_t>(kEpoch));
  EXPECT_EQ(spans[3].parent, 2U);
  EXPECT_EQ(spans[3].run, 7U);
  for (const Span& s : spans) EXPECT_LE(s.startNs, s.endNs);

  // Self times partition the root span exactly.
  const auto layers = layerTimes(spans);
  std::int64_t selfSum = 0;
  for (const LayerTime& t : layers) selfSum += t.selfNs;
  EXPECT_EQ(selfSum, spans[0].endNs - spans[0].startNs);
}

TEST(Inputs, SameSeedGivesIdenticalInputs) {
  for (std::uint64_t seed : {0ULL, 1ULL, 12345ULL}) {
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(deriveSeed(seed, Stream::kEvalSensor, i),
                deriveSeed(seed, Stream::kEvalSensor, i));
      EXPECT_EQ(gridApp(seed, i), gridApp(seed, i));
      EXPECT_EQ(tenantInput(seed, i), tenantInput(seed, i));
    }
  }
}

TEST(Inputs, SeedsStreamsAndIndicesDiffer) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    for (Stream stream : {Stream::kTrain, Stream::kEvalSensor, Stream::kTenantSeed}) {
      for (std::size_t i = 0; i < 100; ++i) seen.insert(deriveSeed(seed, stream, i));
    }
  }
  EXPECT_EQ(seen.size(), 600U);

  std::size_t differing = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    if (!(gridApp(1, i) == gridApp(2, i))) ++differing;
  }
  EXPECT_GT(differing, 12U);
}

TEST(Inputs, GridAppsAreTheInterApplicationWorkloads) {
  std::set<std::string> families;
  for (std::size_t i = 0; i < 200; ++i) {
    const AppChoice app = gridApp(9, i);
    families.insert(app.family);
    EXPECT_GE(app.dataset, 1);
    EXPECT_LE(app.dataset, 3);
  }
  EXPECT_EQ(families, (std::set<std::string>{"mpeg_dec", "tachyon", "face_rec"}));
}

TEST(Inputs, FirstCohortCoversEveryConfigFamily) {
  std::set<std::size_t> families;
  for (std::size_t i = 0; i < kConfigFamilies.size(); ++i) {
    families.insert(tenantInput(3, i).configFamily);
  }
  EXPECT_EQ(families.size(), kConfigFamilies.size());
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_LT(tenantInput(3, i).configFamily, kConfigFamilies.size());
  }
}

}  // namespace
}  // namespace perfbench
