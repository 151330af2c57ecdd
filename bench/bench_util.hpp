// Shared helpers for the experiment harnesses (one binary per paper
// table/figure). Each harness prints the same rows/series the paper reports;
// see EXPERIMENTS.md for the paper-vs-measured record.
//
// Evaluation methodology (also documented in DESIGN.md):
//  - Learning policies are trained on a continuous scenario that repeats the
//    evaluation workload (warm handoffs, no artificial cold-start resets).
//  - Intra-application results (Table 2 class) evaluate the FROZEN agent —
//    the exploitation-phase regime the paper's Fig. 5 and Table 2 report.
//  - Inter-application results (Fig. 3 class) evaluate the agent LIVE
//    (unfrozen), since run-time switch detection and re-learning are the
//    mechanism under test.
#pragma once

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "core/baselines.hpp"
#include "core/runner.hpp"
#include "core/thermal_manager.hpp"
#include "exec/sweep.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/timeline.hpp"
#include "workload/app_spec.hpp"

namespace rltherm::bench {

inline core::RunnerConfig defaultRunnerConfig() {
  core::RunnerConfig config;
  config.maxSimTime = 20000.0;
  return config;
}

/// Scenario that repeats `apps` back to back `times` times (training input).
inline workload::Scenario repeated(const std::vector<workload::AppSpec>& apps,
                                   int times) {
  std::vector<workload::AppSpec> sequence;
  for (int i = 0; i < times; ++i) sequence.insert(sequence.end(), apps.begin(), apps.end());
  return workload::Scenario::of(sequence);
}

/// Plain Linux baseline run.
inline core::RunResult runLinux(core::PolicyRunner& runner,
                                const workload::Scenario& scenario,
                                platform::GovernorSetting governor = {
                                    platform::GovernorKind::Ondemand, 0.0}) {
  core::StaticGovernorPolicy policy(governor);
  return runner.run(scenario, policy);
}

/// Ge & Qiu [7]: train on the repeated scenario, then evaluate.
inline core::RunResult runGeQiu(core::PolicyRunner& runner,
                                const workload::Scenario& eval,
                                const workload::Scenario& train,
                                bool modified = false,
                                core::GeQiuConfig config = {}) {
  core::GeQiuPolicy policy(config, modified);
  (void)runner.run(train, policy);
  return runner.run(eval, policy);
}

/// The proposed manager, trained then FROZEN for evaluation (Table 2 class).
inline core::RunResult runProposedFrozen(core::PolicyRunner& runner,
                                         const workload::Scenario& eval,
                                         const workload::Scenario& train,
                                         core::ThermalManagerConfig config = {},
                                         core::ThermalManager** managerOut = nullptr) {
  static std::vector<std::unique_ptr<core::ThermalManager>> keepAlive;
  keepAlive.push_back(std::make_unique<core::ThermalManager>(
      config, core::ActionSpace::standard(runner.config().machine.coreCount)));
  core::ThermalManager& manager = *keepAlive.back();
  (void)runner.run(train, manager);
  manager.freeze();
  if (managerOut != nullptr) *managerOut = &manager;
  return runner.run(eval, manager);
}

/// The proposed manager, trained then evaluated LIVE (Fig. 3 class).
inline core::RunResult runProposedLive(core::PolicyRunner& runner,
                                       const workload::Scenario& eval,
                                       const workload::Scenario& train,
                                       core::ThermalManagerConfig config = {},
                                       core::ThermalManager** managerOut = nullptr) {
  static std::vector<std::unique_ptr<core::ThermalManager>> keepAlive;
  keepAlive.push_back(std::make_unique<core::ThermalManager>(
      config, core::ActionSpace::standard(runner.config().machine.coreCount)));
  core::ThermalManager& manager = *keepAlive.back();
  (void)runner.run(train, manager);
  if (managerOut != nullptr) *managerOut = &manager;
  return runner.run(eval, manager);
}

/// `--jobs N` support for the bench binaries: parallel lanes for the sweep
/// engine (default 0 = all hardware threads). Sweep results are bit-identical
/// for every jobs value; the flag only trades wall-clock for cores.
inline exec::SweepOptions sweepOptions(int argc, char** argv) {
  exec::SweepOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--jobs" && i + 1 < argc) {
      options.jobs = static_cast<std::size_t>(std::stoul(argv[i + 1]));
    }
    // A bench writing JSON wants the hot-path attribution in the report;
    // the per-scope timing tax is acceptable for a measured run.
    if (std::string(argv[i]) == "--json") options.collectScopes = true;
  }
  return options;
}

/// Spec builders mirroring the serial helpers above, for submission through
/// exec::SweepRunner. Each run constructs its own machine and policy, so
/// specs built here reproduce the serial helpers' results bit for bit.
inline exec::RunSpec linuxSpec(std::string label, workload::Scenario eval,
                               core::RunnerConfig runner,
                               platform::GovernorSetting governor = {
                                   platform::GovernorKind::Ondemand, 0.0}) {
  exec::RunSpec spec;
  spec.label = std::move(label);
  spec.scenario = std::move(eval);
  spec.runner = std::move(runner);
  spec.policy = [governor](std::uint64_t) {
    return std::make_unique<core::StaticGovernorPolicy>(governor);
  };
  return spec;
}

/// The proposed manager, trained on `train`, optionally frozen, then
/// evaluated on `eval` (runProposedFrozen/-Live as one spec). The trained
/// manager comes back in the report's `policy` slot for post-hoc queries.
inline exec::RunSpec proposedSpec(std::string label, workload::Scenario eval,
                                  workload::Scenario train, bool freeze,
                                  core::ThermalManagerConfig config,
                                  core::RunnerConfig runner,
                                  core::ActionSpace actions) {
  exec::RunSpec spec;
  spec.label = std::move(label);
  spec.scenario = std::move(eval);
  spec.train = std::move(train);
  spec.freezeAfterTrain = freeze;
  spec.runner = std::move(runner);
  spec.policy = [config, actions](std::uint64_t) {
    return std::make_unique<core::ThermalManager>(config, actions);
  };
  return spec;
}

/// Ge & Qiu [7] as one spec: trained on `train`, evaluated live on `eval`.
inline exec::RunSpec geSpec(std::string label, workload::Scenario eval,
                            workload::Scenario train, bool modified,
                            core::RunnerConfig runner,
                            core::GeQiuConfig config = {}) {
  exec::RunSpec spec;
  spec.label = std::move(label);
  spec.scenario = std::move(eval);
  spec.train = std::move(train);
  spec.runner = std::move(runner);
  spec.policy = [config, modified](std::uint64_t) {
    return std::make_unique<core::GeQiuPolicy>(config, modified);
  };
  return spec;
}

/// `--json [PATH]` support for the bench binaries: returns the output path
/// when the flag is present (PATH if given, `fallback` otherwise), empty
/// string when absent.
inline std::string jsonOutputPath(int argc, char** argv, const std::string& fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--json") continue;
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      return argv[i + 1];
    }
    return fallback;
  }
  return {};
}

/// Execution accounting attached to every JSON report: how long the bench
/// took, how many parallel lanes ran it, the measured wall-clock speedup
/// versus running its jobs back to back (0 = not measured), the total
/// simulated seconds the bench covered (0 when not applicable), and the
/// hot-path attribution that travels with the numbers (per-scope timer
/// aggregates + histogram quantiles, when the bench collected them).
struct ReportMeta {
  double wallMs = 0.0;
  std::size_t jobs = 1;
  double speedup = 0.0;
  double simSeconds = 0.0;
  std::map<std::string, obs::TraceCollector::ScopeStats> scopes;
  std::map<std::string, obs::Histogram> histograms;
};

inline ReportMeta metaOf(const exec::SweepResult& sweep) {
  ReportMeta meta;
  meta.wallMs = sweep.wallMs;
  meta.jobs = sweep.jobs;
  meta.speedup = sweep.speedup();
  for (const exec::RunReport& run : sweep.runs) meta.simSeconds += run.result.duration;
  meta.scopes = sweep.scopes;
  meta.histograms = sweep.histograms;
  return meta;
}

/// Emits the shared perf sections of a bench report — fingerprint, headline,
/// hot-scope attribution, histogram quantiles — into an OPEN top-level JSON
/// object. Factored out so bespoke writers (bench_micro_kernels' repetition
/// harness, the CLI --json summaries) emit the exact same schema as
/// writeJsonReport. Field names are the contract with the perf gate in
/// scripts/check.sh step 13 (fingerprint, schema_version).
inline void writePerfSections(obs::JsonWriter& json, const ReportMeta& meta) {
  json.key("schema_version")
      .value(static_cast<std::uint64_t>(obs::kPerfSchemaVersion));
  json.key("fingerprint");
  obs::writeFingerprint(json, obs::currentFingerprint());
  json.key("wall_ms").value(meta.wallMs);
  json.key("jobs").value(static_cast<std::uint64_t>(meta.jobs));
  // A single-lane bench is its own serial baseline. A multi-lane bench that
  // did not measure its speedup reports none rather than a made-up 1.
  if (meta.speedup > 0.0) {
    json.key("speedup_vs_serial").value(meta.speedup);
  } else if (meta.jobs == 1) {
    json.key("speedup_vs_serial").value(1.0);
  }
  json.key("sim_seconds").value(meta.simSeconds);
  json.key("sim_seconds_per_wall_second")
      .value(obs::simSecondsPerWallSecond(meta.simSeconds, meta.wallMs));
  json.key("hot_scopes").beginArray();
  for (const auto& [name, stats] : meta.scopes) {
    json.beginObject();
    json.key("scope").value(name);
    json.key("calls").value(stats.calls);
    json.key("total_ns").value(stats.totalNs);
    json.key("mean_ns").value(static_cast<double>(stats.totalNs) /
                              static_cast<double>(std::max<std::uint64_t>(stats.calls, 1)));
    json.key("max_ns").value(stats.maxNs);
    json.endObject();
  }
  json.endArray();
  json.key("histograms").beginArray();
  for (const auto& [name, histogram] : meta.histograms) {
    json.beginObject();
    json.key("metric").value(name);
    json.key("count").value(histogram.count());
    json.key("mean").value(histogram.mean());
    json.key("min").value(histogram.minSeen());
    json.key("max").value(histogram.maxSeen());
    json.key("p50").value(histogram.quantile(0.50));
    json.key("p95").value(histogram.quantile(0.95));
    json.key("p99").value(histogram.quantile(0.99));
    json.endObject();
  }
  json.endArray();
}

/// Writes a bench result table as a JSON report:
///   {"suite": NAME, "schema_version": V, "fingerprint": {...},
///    "wall_ms": MS, "jobs": N, ["speedup_vs_serial": X,] "sim_seconds": S,
///    "sim_seconds_per_wall_second": RATE, "hot_scopes": [...],
///    "histograms": [...], <extra scalars...>,
///    "columns": [...], "rows": [{col: value, ...}, ...]}
/// Numeric-looking cells become JSON numbers (see JsonWriter::valueAuto), so
/// downstream scripts get typed data without the table layer changing.
/// `extra` lets a bench attach suite-specific top-level scalars (e.g. the
/// policy zoo's retrain_ms_saved) without a bespoke writer.
inline void writeJsonReport(const TextTable& table, const std::string& suite,
                            const std::string& path, const ReportMeta& meta = {},
                            const std::vector<std::pair<std::string, double>>& extra = {}) {
  std::ofstream out(path);
  expects(out.good(), "cannot write '" + path + "'");
  obs::JsonWriter json(out);
  json.beginObject();
  json.key("suite").value(suite);
  writePerfSections(json, meta);
  for (const auto& [key, value] : extra) json.key(key).value(value);
  json.key("columns").beginArray();
  for (const std::string& column : table.header()) json.value(column);
  json.endArray();
  json.key("rows").beginArray();
  for (const std::vector<std::string>& row : table.rows()) {
    json.beginObject();
    for (std::size_t c = 0; c < row.size() && c < table.header().size(); ++c) {
      json.key(table.header()[c]).valueAuto(row[c]);
    }
    json.endObject();
  }
  json.endArray();
  json.endObject();
  out << "\n";
  ensures(json.complete(), "bench JSON report left unbalanced");
  obs::recordHeadline(meta.simSeconds, meta.wallMs);
  std::cout << "wrote " << path << "\n";
}

}  // namespace rltherm::bench
