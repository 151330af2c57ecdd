#include "obs/perf.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace rltherm::obs {
namespace {

TEST(BuildFingerprintTest, FieldsArePopulated) {
  const BuildFingerprint& fp = currentFingerprint();
  EXPECT_EQ(fp.schemaVersion, kPerfSchemaVersion);
  EXPECT_FALSE(fp.cpuModel.empty());
  EXPECT_FALSE(fp.compiler.empty());
  EXPECT_TRUE(fp.buildType == "optimized" || fp.buildType == "debug");
  EXPECT_FALSE(fp.sanitizers.empty());
  EXPECT_GE(fp.coreCount, 1u);
  // Cached: repeated calls hand back the same object.
  EXPECT_EQ(&currentFingerprint(), &fp);
}

TEST(BuildFingerprintTest, SerializesAllSchemaFields) {
  std::ostringstream out;
  JsonWriter json(out);
  json.beginObject().key("fingerprint");
  writeFingerprint(json, currentFingerprint());
  json.endObject();
  ASSERT_TRUE(json.complete());
  const std::string text = out.str();
  for (const char* field : {"\"schema_version\"", "\"cpu_model\"",
                            "\"core_count\"", "\"compiler\"", "\"build_type\"",
                            "\"checked\"", "\"sanitizers\""}) {
    EXPECT_NE(text.find(field), std::string::npos) << "missing " << field;
  }
}

TEST(RepStatsTest, OddSampleCountUsesMiddleElement) {
  const RepStats stats = repStats({30.0, 10.0, 20.0});
  EXPECT_EQ(stats.reps, 3u);
  EXPECT_DOUBLE_EQ(stats.min, 10.0);
  EXPECT_DOUBLE_EQ(stats.median, 20.0);
  EXPECT_DOUBLE_EQ(stats.max, 30.0);
  EXPECT_DOUBLE_EQ(stats.mean, 20.0);
  // Absolute deviations from 20 are {10, 0, 10}; their median is 10.
  EXPECT_DOUBLE_EQ(stats.mad, 10.0);
  EXPECT_NEAR(stats.cv, 1.4826 * 10.0 / 20.0, 1e-12);
}

TEST(RepStatsTest, EvenSampleCountAveragesMiddlePair) {
  const RepStats stats = repStats({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(stats.median, 2.5);
  // Deviations {1.5, 0.5, 0.5, 1.5} -> median 1.0.
  EXPECT_DOUBLE_EQ(stats.mad, 1.0);
}

TEST(RepStatsTest, IdenticalSamplesHaveZeroSpread) {
  const RepStats stats = repStats({5.0, 5.0, 5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(stats.median, 5.0);
  EXPECT_DOUBLE_EQ(stats.mad, 0.0);
  EXPECT_DOUBLE_EQ(stats.cv, 0.0);
}

TEST(RepStatsTest, RobustAgainstOneOutlier) {
  // One 10x outlier (a scheduler hiccup) must barely move median/MAD while
  // it drags the mean — the reason the gate compares medians.
  const RepStats stats = repStats({100.0, 101.0, 99.0, 100.0, 1000.0});
  EXPECT_DOUBLE_EQ(stats.median, 100.0);
  EXPECT_LE(stats.mad, 1.0);
  EXPECT_GT(stats.mean, 200.0);
  EXPECT_LT(stats.cv, 0.05);
}

TEST(RepStatsTest, ZeroMedianGivesZeroCv) {
  const RepStats stats = repStats({0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(stats.cv, 0.0);
}

TEST(SimRateTest, HeadlineRateAndDegenerateInputs) {
  // 2000 simulated seconds in 500 ms of wall time = 4000 sim s / wall s.
  EXPECT_DOUBLE_EQ(simSecondsPerWallSecond(2000.0, 500.0), 4000.0);
  EXPECT_DOUBLE_EQ(simSecondsPerWallSecond(0.0, 500.0), 0.0);
  EXPECT_DOUBLE_EQ(simSecondsPerWallSecond(2000.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(simSecondsPerWallSecond(-1.0, 500.0), 0.0);
}

TEST(RecordHeadlineTest, PublishesToAmbientMetrics) {
  MetricsRegistry registry;
  Session session;
  session.metrics = &registry;
  {
    ScopedSession scoped(session);
    recordHeadline(2000.0, 500.0);
    recordHeadline(0.0, 0.0);  // no rate: gauge untouched, counter still bumps
  }
  EXPECT_EQ(registry.counter("perf.reports.write").value(), 2u);
  EXPECT_DOUBLE_EQ(registry.gauge("perf.headline.sim_rate").value(), 4000.0);
}

TEST(RecordHeadlineTest, DetachedSessionIsANoOp) {
  recordHeadline(2000.0, 500.0);  // must not crash without a session
}

}  // namespace
}  // namespace rltherm::obs
