// Bench-report smoke test: the JSON emitted by bench_util's writeJsonReport
// must carry the execution-accounting header (wall_ms, jobs,
// speedup_vs_serial) alongside the table payload, since the suite scripts
// key on those fields to track sweep speedups across runs.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "bench_util.hpp"

namespace rltherm::bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(BenchJsonTest, ReportCarriesWallMsAndJobs) {
  TextTable table({"App", "MTTF (y)"});
  table.row().cell("tachyon").cell(4.25, 2);
  table.row().cell("mpeg_dec").cell(6.5, 2);

  ReportMeta meta;
  meta.wallMs = 1234.5;
  meta.jobs = 4;
  meta.speedup = 3.2;
  const std::string path = ::testing::TempDir() + "bench_json_test.json";
  writeJsonReport(table, "unit_smoke", path, meta);

  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"suite\":\"unit_smoke\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_ms\":1234.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"jobs\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"speedup_vs_serial\":3.2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tachyon\""), std::string::npos) << json;
}

TEST(BenchJsonTest, DefaultMetaMarksSerialSingleJob) {
  TextTable table({"k"});
  table.row().cell("v");
  const std::string path = ::testing::TempDir() + "bench_json_default.json";
  writeJsonReport(table, "unit_default", path);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"jobs\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"speedup_vs_serial\":1"), std::string::npos) << json;
}

TEST(BenchJsonTest, UnmeasuredMultiLaneSpeedupIsOmitted) {
  // A parallel bench that did not measure a serial baseline (e.g. the fleet
  // service) must not report the serial default.
  TextTable table({"k"});
  table.row().cell("v");
  ReportMeta meta;
  meta.wallMs = 3800.0;
  meta.jobs = 4;
  const std::string path = ::testing::TempDir() + "bench_json_unmeasured.json";
  writeJsonReport(table, "unit_unmeasured", path, meta);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"jobs\":4"), std::string::npos) << json;
  EXPECT_EQ(json.find("speedup_vs_serial"), std::string::npos) << json;

  meta.speedup = 2.7;
  writeJsonReport(table, "unit_measured", path, meta);
  EXPECT_NE(slurp(path).find("\"speedup_vs_serial\":2.7"), std::string::npos);
}

TEST(BenchJsonTest, MetaOfMirrorsSweepResult) {
  exec::SweepResult sweep;
  sweep.wallMs = 100.0;
  sweep.serialMsEstimate = 250.0;
  sweep.jobs = 3;
  const ReportMeta meta = metaOf(sweep);
  EXPECT_DOUBLE_EQ(meta.wallMs, 100.0);
  EXPECT_EQ(meta.jobs, 3u);
  EXPECT_DOUBLE_EQ(meta.speedup, 2.5);
}

// Golden schema: every shared field name of a perf report must appear in
// what writeJsonReport emits. A rename breaks this test before it breaks the
// perf gate in scripts/check.sh, which reads the fingerprint.
TEST(BenchJsonTest, PerfSchemaGolden) {
  TextTable table({"k"});
  table.row().cell("v");

  ReportMeta meta;
  meta.wallMs = 500.0;
  meta.simSeconds = 2000.0;
  obs::TraceCollector::ScopeStats stats;
  stats.calls = 3;
  stats.totalNs = 300;
  stats.maxNs = 150;
  meta.scopes.emplace("thermal.rc.step", stats);
  obs::Histogram h(0.0, 5.0, 50);
  h.observe(0.01);
  h.observe(0.02);
  meta.histograms.emplace("manager.epoch.decide", h);

  const std::string path = ::testing::TempDir() + "bench_json_schema.json";
  writeJsonReport(table, "unit_schema", path, meta);
  const std::string json = slurp(path);

  for (const char* field :
       {"\"schema_version\":1", "\"fingerprint\"", "\"cpu_model\"",
        "\"core_count\"", "\"compiler\"", "\"build_type\"", "\"checked\"",
        "\"sanitizers\"", "\"sim_seconds\":2000",
        "\"sim_seconds_per_wall_second\":4000", "\"hot_scopes\"",
        "\"scope\":\"thermal.rc.step\"", "\"calls\":3", "\"total_ns\":300",
        "\"mean_ns\":100", "\"max_ns\":150", "\"histograms\"",
        "\"metric\":\"manager.epoch.decide\"", "\"count\":2", "\"p50\"",
        "\"p95\"", "\"p99\""}) {
    EXPECT_NE(json.find(field), std::string::npos)
        << "missing " << field << " in " << json;
  }
}

// The sweep engine's opt-in attribution: with collectScopes on, per-run
// timed scopes and histograms come back merged on the SweepResult, and the
// merge is independent of scheduling (index order).
TEST(BenchJsonTest, SweepCollectsScopesAndHistograms) {
  exec::RunSpec spec;
  spec.label = "mini";
  spec.scenario = workload::Scenario::of({workload::makeApp("mpeg_dec", 1)});
  core::RunnerConfig runnerConfig;
  runnerConfig.maxSimTime = 300.0;
  spec.runner = runnerConfig;
  spec.policy = [](std::uint64_t) {
    return std::make_unique<core::StaticGovernorPolicy>(
        platform::GovernorSetting{platform::GovernorKind::Ondemand, 0.0});
  };

  exec::SweepOptions options;
  options.jobs = 1;
  options.collectScopes = true;
  const exec::SweepResult sweep = exec::SweepRunner(options).run({spec, spec});

  ASSERT_EQ(sweep.runs.size(), 2u);
  ASSERT_FALSE(sweep.scopes.empty());
  const auto rcStep = sweep.scopes.find("thermal.rc.step");
  ASSERT_NE(rcStep, sweep.scopes.end());
  // Two identical runs: the merged aggregate holds both runs' calls, and
  // each run's private view shows exactly half.
  EXPECT_EQ(rcStep->second.calls,
            sweep.runs[0].scopes.at("thermal.rc.step").calls * 2);
  EXPECT_GT(rcStep->second.totalNs, 0u);

  const ReportMeta meta = metaOf(sweep);
  EXPECT_FALSE(meta.scopes.empty());
  EXPECT_DOUBLE_EQ(meta.simSeconds,
                   sweep.runs[0].result.duration + sweep.runs[1].result.duration);
}

}  // namespace
}  // namespace rltherm::bench
