// rltherm_cli — command-line front end for the library.
//
//   rltherm_cli list-apps
//   rltherm_cli run        --app tachyon --dataset 1 --policy proposed
//                          [--train 3] [--live] [--config file.ini]
//                          [--csv trace.csv] [--big-little]
//                          [--events out.jsonl] [--chrome-trace out.json]
//                          [--metrics]
//   rltherm_cli inter      --apps mpeg_dec,tachyon --policy proposed [...]
//   rltherm_cli concurrent --apps tachyon,mpeg_dec --window 2000 --policy ge [...]
//   rltherm_cli compare    --app tachyon --policies linux-ondemand,ge,proposed
//   rltherm_cli sweep      --apps tachyon,mpeg_dec --policies linux-ondemand,proposed
//                          [--jobs N] [--dataset N] [--train N] [--live]
//                          [--seed S] [--config file.ini]
//   rltherm_cli faults     [--scenarios DIR] [--apps a,b] [--jobs N] [--json FILE]
//   rltherm_cli faults     --lint [FILE1,FILE2,...] [--scenarios DIR]
//   rltherm_cli train      --app tachyon [--dataset N] [--train N] [--seed S]
//                          [--out policy.ckpt]
//   rltherm_cli eval       --policy policy.ckpt --app tachyon [--dataset N]
//   rltherm_cli inspect    FILE [--json]
//   rltherm_cli serve      [--socket PATH] [--jobs N] [--slice S]
//                          [--train-time S] [--cache-cap N] [--queue-depth N]
//                          [--max-tenants N]
//
// Policies: linux-ondemand | linux-powersave | linux-performance |
//           userspace-<GHz> (e.g. userspace-2.4) | ge | ge-modified | proposed
//
// Robustness (see docs/ARCHITECTURE.md "Fault injection & safety"):
//   --faults FILE   replay a fault scenario (scenarios/*.toml) during the run
//   --supervise     wrap the selected policy in the SafetySupervisor
//   faults          run the (scenario x policy x raw/safe) campaign grid;
//                   with --lint, parse scenario files and exit nonzero on the
//                   first line-numbered error (no simulation)
//
// `--config` overlays an INI file (see core/config_io.hpp) on the default
// machine/runner/manager parameters; `--csv` writes the per-core temperature
// trace of the (final) evaluation run.
//
// Observability (see docs/ARCHITECTURE.md "Observability"):
//   --events FILE        structured JSONL event log (one decision event per
//                        epoch, workload lifecycle, run summaries)
//   --chrome-trace FILE  Chrome trace_event JSON of the simulator hot paths
//                        (load in chrome://tracing or ui.perfetto.dev)
//   --metrics            print the metrics registry + timer summary tables
//                        and an instrumentation-overhead estimate
//
// Policy checkpoints (see docs/ARCHITECTURE.md "store (policy checkpoints)"):
//   train      train the proposed manager and write a versioned checkpoint
//              (--out, default policy.ckpt)
//   eval       rebuild the manager from a checkpoint, freeze it and evaluate
//              (inference-only — no Q update ever runs)
//   inspect    human-readable summary of a checkpoint; --json for machines
//   --resume FILE  (run/inter/concurrent) load the checkpoint into the
//              policy before the run and skip the training pass; resume at a
//              run boundary is bit-exact
//
// Unknown flags are rejected with a nonzero exit; every command validates
// its flag set, and commands that take no positional arguments reject them.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/baselines.hpp"
#include "core/config_io.hpp"
#include "core/manager_checkpoint.hpp"
#include "core/runner.hpp"
#include "core/safety_supervisor.hpp"
#include "core/thermal_manager.hpp"
#include "bench_util.hpp"
#include "exec/sweep.hpp"
#include "fault/plan.hpp"
#include "fault_campaign_util.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "store/checkpoint.hpp"
#include "store/policy_checkpoint.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"
#include "workload/app_spec.hpp"

namespace {

using namespace rltherm;

struct Options {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positionals;  ///< only `inspect FILE` accepts any

  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& name) const { return flags.contains(name); }
};

Options parseArgs(int argc, char** argv) {
  Options options;
  if (argc >= 2) options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      options.positionals.push_back(arg);  // validated per command
      continue;
    }
    arg = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options.flags[arg] = argv[++i];
    } else {
      options.flags[arg] = "true";  // boolean flag
    }
  }
  return options;
}

/// Flags shared by every simulating command (run/inter/concurrent/compare).
const std::vector<std::string>& commonFlags() {
  static const std::vector<std::string> flags = {
      "config", "big-little", "events", "chrome-trace", "metrics",
      "faults",  "supervise",
  };
  return flags;
}

/// Rejects misspelled / unsupported flags per command: `--polcy` must fail
/// loudly, not silently fall back to the default policy. Positional
/// arguments are rejected unless the command declares it takes them.
void validateFlags(const Options& options, std::vector<std::string> known,
                   bool withCommon = true, bool allowPositionals = false) {
  if (!allowPositionals && !options.positionals.empty()) {
    throw PreconditionError("unexpected argument '" + options.positionals.front() +
                            "' (flags are --name [value])");
  }
  if (withCommon) {
    known.insert(known.end(), commonFlags().begin(), commonFlags().end());
  }
  for (const auto& [name, value] : options.flags) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::sort(known.begin(), known.end());
    std::string valid;
    for (const std::string& k : known) valid += " --" + k;
    throw PreconditionError("unknown flag '--" + name + "' for command '" +
                            options.command + "' (valid flags:" + valid + ")");
  }
}

std::vector<std::string> splitList(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void usage() {
  std::cout <<
      "usage:\n"
      "  rltherm_cli list-apps\n"
      "  rltherm_cli run        --app FAMILY [--dataset N] --policy P [--train N]\n"
      "                         [--live] [--config FILE] [--csv FILE] [--big-little]\n"
      "                         [--events FILE] [--chrome-trace FILE] [--metrics]\n"
      "                         [--json FILE]\n"
      "  rltherm_cli inter      --apps a,b[,c] --policy P [same options]\n"
      "  rltherm_cli concurrent --apps a,b --window SECONDS --policy P [same options]\n"
      "  rltherm_cli compare    --app FAMILY [--dataset N] --policies p1,p2,...\n"
      "  rltherm_cli sweep      --apps a,b,... --policies p1,p2,... [--jobs N]\n"
      "                         [--dataset N] [--train N] [--live] [--seed S]\n"
      "                         [--json FILE]\n"
      "  rltherm_cli faults     [--scenarios DIR] [--apps a,b] [--jobs N]\n"
      "                         [--train N] [--seed S] [--json FILE]\n"
      "  rltherm_cli faults     --lint [FILE1,FILE2,...] [--scenarios DIR]\n"
      "  rltherm_cli train      --app FAMILY [--dataset N] [--train N] [--seed S]\n"
      "                         [--out policy.ckpt]\n"
      "  rltherm_cli eval       --policy policy.ckpt --app FAMILY [--dataset N]\n"
      "  rltherm_cli inspect    FILE [--json]\n"
      "  rltherm_cli serve      [--socket PATH] [--jobs N] [--slice S]\n"
      "                         [--train-time S] [--cache-cap N]\n"
      "                         [--queue-depth N] [--max-tenants N]\n"
      "policies: linux-ondemand linux-powersave linux-performance\n"
      "          userspace-<GHz> ge ge-modified proposed\n"
      "robustness:\n"
      "  --faults FILE        replay a fault scenario (scenarios/*.toml) during\n"
      "                       the run (run/inter/concurrent/compare/sweep)\n"
      "  --supervise          wrap the policy in the SafetySupervisor (sensor\n"
      "                       quarantine, actuation retry, thermal emergency)\n"
      "  faults               campaign grid over every scenario x policy, raw\n"
      "                       vs supervised; --lint validates scenario files\n"
      "                       and exits nonzero on the first parse error\n"
      "observability:\n"
      "  --events FILE        JSONL event log (decision epochs, app lifecycle,\n"
      "                       run summaries)\n"
      "  --chrome-trace FILE  hot-path timings as Chrome trace_event JSON\n"
      "  --metrics            print metrics/timer summaries + overhead estimate\n"
      "  --json FILE          (run/inter/concurrent/sweep) perf summary JSON:\n"
      "                       fingerprint, sim_seconds_per_wall_second headline,\n"
      "                       result rows; add --metrics for hot-scope attribution\n"
      "                       (the bench report schema; see docs/ARCHITECTURE.md)\n"
      "policy checkpoints (train once, evaluate many):\n"
      "  train                train the proposed manager, write a versioned\n"
      "                       checkpoint (--out, default policy.ckpt)\n"
      "  eval                 rebuild the manager from --policy FILE, freeze it\n"
      "                       and evaluate (inference-only)\n"
      "  inspect FILE         summarize a checkpoint (--json for machines)\n"
      "  --resume FILE        (run/inter/concurrent) load the checkpoint before\n"
      "                       the run and skip the training pass\n"
      "fleet service (multi-tenant manager-as-a-server):\n"
      "  serve                host many independent tenants behind a newline-\n"
      "                       delimited JSON line protocol (admit/step/query/\n"
      "                       evict/stats/shutdown) on stdin/stdout, or on an\n"
      "                       AF_UNIX socket with --socket PATH; warm-start\n"
      "                       cache trains one policy per config family\n"
      "                       (see docs/ARCHITECTURE.md 'serve (fleet service)')\n"
      "sweep runs the (app x policy) grid on a thread pool (--jobs, default: all\n"
      "hardware threads; --jobs 1 is the serial path). Output is bit-identical\n"
      "for every --jobs value; see docs/ARCHITECTURE.md 'Parallel execution'.\n";
}

/// Owns the observability backends selected by --events / --chrome-trace /
/// --metrics and keeps them installed on the ambient session for the
/// command's lifetime. With none of the three flags the session is not
/// installed at all and the library's instrumentation stays at its
/// null-check fast path.
class ObsSetup {
 public:
  explicit ObsSetup(const Options& options) {
    if (options.has("events")) {
      eventsPath_ = options.get("events", "events.jsonl");
      eventsOut_.open(eventsPath_);
      expects(eventsOut_.good(), "cannot write '" + eventsPath_ + "'");
      eventSink_.emplace(eventsOut_);
      session_.events = &*eventSink_;
    }
    if (options.has("chrome-trace")) {
      tracePath_ = options.get("chrome-trace", "trace.json");
      collector_.emplace();
      session_.trace = &*collector_;
    }
    if (options.has("metrics")) {
      metrics_.emplace();
      session_.metrics = &*metrics_;
      // The timer table is part of --metrics; share one collector.
      if (!collector_.has_value()) collector_.emplace();
      session_.trace = &*collector_;
      wantSummary_ = true;
    }
    if (session_.events != nullptr || session_.trace != nullptr ||
        session_.metrics != nullptr) {
      scoped_.emplace(session_);
      startedNs_ = obs::wallClockNs();
    }
  }

  /// Uninstalls the session, flushes the sinks and prints the summaries.
  /// Call after the command's runs are complete.
  void finish() {
    if (!scoped_.has_value()) return;
    const std::uint64_t elapsedNs = obs::wallClockNs() - startedNs_;
    scoped_.reset();  // detach before reporting

    if (!eventsPath_.empty()) {
      eventsOut_.flush();
      expects(eventsOut_.good(), "error writing '" + eventsPath_ + "'");
      std::cout << "wrote " << eventsPath_ << " (" << eventSink_->eventCount()
                << " events)\n";
    }
    if (!tracePath_.empty()) {
      std::ofstream out(tracePath_);
      expects(out.good(), "cannot write '" + tracePath_ + "'");
      obs::writeChromeTrace(*collector_, out);
      std::cout << "wrote " << tracePath_ << " (" << collector_->events().size()
                << " trace events";
      if (collector_->droppedEvents() > 0) {
        std::cout << ", " << collector_->droppedEvents() << " dropped";
      }
      std::cout << ")\n";
    }
    if (wantSummary_) printSummary(elapsedNs);
  }

  /// Copies the collected histograms and timed-scope aggregates into a JSON
  /// report's meta. A command writing --json calls this right before
  /// finish(); without --metrics/--chrome-trace there is nothing attached
  /// and meta is left untouched (the report still carries the headline).
  void collectInto(bench::ReportMeta& meta) const {
    if (metrics_.has_value()) {
      metrics_->forEachHistogram(
          [&](const std::string& name, const obs::Histogram& h) {
            meta.histograms.emplace(name, h);
          });
    }
    if (collector_.has_value()) {
      for (const auto& [name, stat] : collector_->sortedStats()) {
        meta.scopes[name] = stat;
      }
    }
  }

 private:
  void printSummary(std::uint64_t elapsedNs) const {
    printBanner(std::cout, "metrics");
    TextTable table({"metric", "kind", "value"});
    metrics_->forEachCounter([&](const std::string& name, const obs::Counter& c) {
      table.row().cell(name).cell("counter").cell(static_cast<long long>(c.value()));
    });
    metrics_->forEachGauge([&](const std::string& name, const obs::Gauge& g) {
      table.row().cell(name).cell("gauge").cell(g.value(), 4);
    });
    metrics_->forEachHistogram([&](const std::string& name, const obs::Histogram& h) {
      std::string summary = std::to_string(h.count()) + " obs, mean " +
                            formatFixed(h.mean(), 4) + " [" +
                            formatFixed(h.minSeen(), 4) + ", " +
                            formatFixed(h.maxSeen(), 4) + "] p50 " +
                            formatFixed(h.quantile(0.50), 4) + " p95 " +
                            formatFixed(h.quantile(0.95), 4) + " p99 " +
                            formatFixed(h.quantile(0.99), 4);
      table.row().cell(name).cell("histogram").cell(summary);
    });
    if (table.rowCount() > 0) table.print(std::cout);

    const auto stats = collector_->sortedStats();
    if (!stats.empty()) {
      printBanner(std::cout, "timed scopes");
      TextTable timers({"scope", "calls", "total (ms)", "mean (us)", "max (us)"});
      for (const auto& [name, stat] : stats) {
        timers.row()
            .cell(name)
            .cell(static_cast<long long>(stat.calls))
            .cell(static_cast<double>(stat.totalNs) / 1e6, 2)
            .cell(static_cast<double>(stat.totalNs) /
                      static_cast<double>(std::max<std::uint64_t>(stat.calls, 1)) / 1e3,
                  2)
            .cell(static_cast<double>(stat.maxNs) / 1e3, 2);
      }
      timers.print(std::cout);
    }

    // Instrumentation overhead estimate: the time spent serializing events
    // (self-timed by the sink) plus the calibrated per-scope timer cost
    // times the number of timed scopes entered, against command wall time.
    std::uint64_t overheadNs = 0;
    if (eventSink_.has_value()) overheadNs += eventSink_->serializeNs();
    overheadNs += obs::TraceCollector::measuredScopeCostNs() * collector_->totalCalls();
    const double pct = elapsedNs > 0
                           ? 100.0 * static_cast<double>(overheadNs) /
                                 static_cast<double>(elapsedNs)
                           : 0.0;
    std::cout << "instrumentation overhead: ~" << formatFixed(pct, 2) << "% ("
              << formatFixed(static_cast<double>(overheadNs) / 1e6, 2) << " ms of "
              << formatFixed(static_cast<double>(elapsedNs) / 1e6, 2)
              << " ms wall time)\n";
  }

  obs::Session session_;
  std::string eventsPath_;
  std::string tracePath_;
  std::ofstream eventsOut_;
  std::optional<obs::JsonlEventSink> eventSink_;
  std::optional<obs::TraceCollector> collector_;
  std::optional<obs::MetricsRegistry> metrics_;
  std::optional<obs::ScopedSession> scoped_;
  std::uint64_t startedNs_ = 0;
  bool wantSummary_ = false;
};

/// Owns whichever policy the --policy flag selected.
struct PolicyBundle {
  std::unique_ptr<core::ThermalPolicy> policy;
  core::ThermalManager* manager = nullptr;  // set when policy == proposed
};

PolicyBundle makePolicy(const std::string& name, const ConfigFile& config) {
  PolicyBundle bundle;
  if (name == "linux-ondemand") {
    bundle.policy = std::make_unique<core::StaticGovernorPolicy>(
        platform::GovernorSetting{platform::GovernorKind::Ondemand, 0.0});
  } else if (name == "linux-powersave") {
    bundle.policy = std::make_unique<core::StaticGovernorPolicy>(
        platform::GovernorSetting{platform::GovernorKind::Powersave, 0.0});
  } else if (name == "linux-performance") {
    bundle.policy = std::make_unique<core::StaticGovernorPolicy>(
        platform::GovernorSetting{platform::GovernorKind::Performance, 0.0});
  } else if (name.rfind("userspace-", 0) == 0) {
    const double ghz = std::stod(name.substr(10));
    bundle.policy = std::make_unique<core::StaticGovernorPolicy>(
        platform::GovernorSetting{platform::GovernorKind::Userspace, ghz * 1e9});
  } else if (name == "ge" || name == "ge-modified") {
    bundle.policy =
        std::make_unique<core::GeQiuPolicy>(core::GeQiuConfig{}, name == "ge-modified");
  } else if (name == "proposed") {
    auto manager = std::make_unique<core::ThermalManager>(
        core::managerConfigFrom(config),
        core::ActionSpace::standard(core::kProposedPolicyCores));
    bundle.manager = manager.get();
    bundle.policy = std::move(manager);
  } else {
    throw PreconditionError("unknown policy '" + name + "'");
  }
  return bundle;
}

/// `--faults FILE`: loads the scenario into the runner config so the
/// injector replays it during every run of the command.
void loadFaults(const Options& options, core::RunnerConfig& runner) {
  if (!options.has("faults")) return;
  runner.faults = fault::FaultPlan::fromFile(options.get("faults", ""));
}

/// `--supervise`: wraps the selected policy in a SafetySupervisor. The
/// bundle's manager pointer keeps pointing at the inner ThermalManager, so
/// the freeze-after-train protocol still works through the wrapper.
void superviseIfRequested(const Options& options, PolicyBundle& bundle) {
  if (!options.has("supervise")) return;
  bundle.policy = std::make_unique<core::SafetySupervisor>(
      std::move(bundle.policy), core::SafetySupervisorConfig{});
}

void writeTraceCsv(const core::RunResult& result, const std::string& path) {
  trace::Recorder recorder(result.traceInterval);
  for (std::size_t c = 0; c < result.coreTraces.size(); ++c) {
    recorder.addChannel("core" + std::to_string(c) + "_temp");
  }
  for (std::size_t i = 0; i < result.coreTraces[0].size(); ++i) {
    std::vector<double> row;
    for (const auto& coreTrace : result.coreTraces) row.push_back(coreTrace[i]);
    recorder.append(row);
  }
  std::ofstream out(path);
  expects(out.good(), "cannot write '" + path + "'");
  trace::writeCsv(recorder, out);
  std::cout << "wrote " << path << " (" << result.coreTraces[0].size() << " samples)\n";
}

void printResult(const core::RunResult& result) {
  TextTable table({"metric", "value"});
  table.row().cell("policy").cell(result.policyName);
  table.row().cell("scenario").cell(result.scenarioName);
  table.row().cell("execution time (s)").cell(result.duration, 1);
  table.row().cell("timed out").cell(result.timedOut ? "yes" : "no");
  table.row().cell("average temperature (C)").cell(result.reliability.averageTemp, 2);
  table.row().cell("peak temperature (C)").cell(result.reliability.peakTemp, 2);
  table.row().cell("cycling MTTF (years)").cell(result.reliability.cyclingMttfYears, 2);
  table.row().cell("aging MTTF (years)").cell(result.reliability.agingMttfYears, 2);
  table.row().cell("dynamic energy (kJ)").cell(result.dynamicEnergy / 1000.0, 2);
  table.row().cell("static energy (kJ)").cell(result.staticEnergy / 1000.0, 2);
  table.row().cell("avg dynamic power (W)").cell(result.averageDynamicPower, 2);
  table.print(std::cout);
  if (!result.completions.empty()) {
    std::cout << "completions:\n";
    for (const auto& completion : result.completions) {
      std::cout << "  " << completion.name << ": " << completion.iterations
                << " iterations in " << formatFixed(completion.executionTime(), 1)
                << " s\n";
    }
  }
}

int commandListApps() {
  TextTable table({"family", "datasets", "sync", "threads", "Pc (iter/s)"});
  for (const char* family : {"tachyon", "mpeg_dec", "mpeg_enc", "face_rec", "sphinx"}) {
    const workload::AppSpec spec = workload::makeApp(family, 1);
    table.row()
        .cell(family)
        .cell("1-3")
        .cell(spec.sync == workload::SyncStyle::Barrier ? "barrier" : "independent")
        .cell(static_cast<long long>(spec.threadCount))
        .cell(spec.performanceConstraint, 2);
  }
  table.print(std::cout);
  return 0;
}

bool isLearningPolicy(const std::string& name) {
  return name == "proposed" || name == "ge" || name == "ge-modified";
}

/// Refuses, before any run starts, a machine the proposed policy cannot
/// drive when `policies` names it.
void checkPolicyMachine(const std::vector<std::string>& policies,
                        const core::RunnerConfig& runner) {
  if (std::find(policies.begin(), policies.end(), "proposed") != policies.end()) {
    core::requireProposedPolicyMachine(runner);
  }
}

int compareCommand(const Options& options) {
  validateFlags(options, {"app", "dataset", "policies", "train", "live"});
  ConfigFile config;
  if (options.has("config")) {
    std::ifstream in(options.get("config", ""));
    expects(in.good(), "cannot read config file");
    config = ConfigFile::parse(in);
  }
  core::RunnerConfig runnerConfig = core::runnerConfigFrom(config);
  if (options.has("big-little")) {
    runnerConfig.machine.coreTypes = platform::bigLittleCoreTypes();
  }
  loadFaults(options, runnerConfig);
  core::PolicyRunner runner(runnerConfig);
  ObsSetup obsSetup(options);

  const workload::AppSpec app = workload::makeApp(
      options.get("app", "tachyon"), std::stoi(options.get("dataset", "1")));
  const workload::Scenario eval = workload::Scenario::of({app});
  const int trainPasses = std::stoi(options.get("train", "3"));
  std::vector<workload::AppSpec> trainApps(static_cast<std::size_t>(trainPasses), app);
  const workload::Scenario train = workload::Scenario::of(trainApps);

  TextTable table({"policy", "exec (s)", "avg T (C)", "peak T (C)", "TC-MTTF (y)",
                   "aging MTTF (y)", "dyn energy (kJ)"});
  const std::vector<std::string> policies =
      splitList(options.get("policies", "linux-ondemand,ge,proposed"));
  checkPolicyMachine(policies, runnerConfig);
  for (const std::string& name : policies) {
    PolicyBundle bundle = makePolicy(name, config);
    superviseIfRequested(options, bundle);
    if (isLearningPolicy(name)) {
      (void)runner.run(train, *bundle.policy);
      if (bundle.manager && !options.has("live")) bundle.manager->freeze();
    }
    const core::RunResult result = runner.run(eval, *bundle.policy);
    table.row()
        .cell(result.policyName)
        .cell(result.duration, 0)
        .cell(result.reliability.averageTemp, 1)
        .cell(result.reliability.peakTemp, 1)
        .cell(result.reliability.cyclingMttfYears, 2)
        .cell(result.reliability.agingMttfYears, 2)
        .cell(result.dynamicEnergy / 1000.0, 2);
  }
  printBanner(std::cout, "policy comparison on " + app.name);
  table.print(std::cout);
  obsSetup.finish();
  return 0;
}

int runCommand(const Options& options) {
  std::vector<std::string> known = {"policy", "dataset", "train", "live", "csv",
                                    "resume", "json"};
  if (options.command == "run") {
    known.push_back("app");
  } else {
    known.push_back("apps");
    if (options.command == "concurrent") known.push_back("window");
  }
  validateFlags(options, std::move(known));

  ConfigFile config;
  if (options.has("config")) {
    std::ifstream in(options.get("config", ""));
    expects(in.good(), "cannot read config file");
    config = ConfigFile::parse(in);
  }
  core::RunnerConfig runnerConfig = core::runnerConfigFrom(config);
  if (options.has("big-little")) {
    runnerConfig.machine.coreTypes = platform::bigLittleCoreTypes();
  }
  loadFaults(options, runnerConfig);
  // --resume FILE: the runner loads the checkpoint into the policy's
  // ThermalManager right before the (single) evaluation run; the training
  // pass is skipped — the checkpoint IS the training.
  const bool resume = options.has("resume");
  if (resume) runnerConfig.resumeCheckpoint = options.get("resume", "");
  core::PolicyRunner runner(runnerConfig);

  checkPolicyMachine({options.get("policy", "linux-ondemand")}, runnerConfig);
  PolicyBundle bundle = makePolicy(options.get("policy", "linux-ondemand"), config);
  superviseIfRequested(options, bundle);
  const int trainPasses = std::stoi(options.get("train", "3"));

  ObsSetup obsSetup(options);
  // Wall clock around the simulating section (training + evaluation) and the
  // simulated seconds it covered feed the --json headline.
  const std::uint64_t simStartNs = obs::wallClockNs();
  double simSeconds = 0.0;
  core::RunResult result;
  if (options.command == "concurrent") {
    std::vector<workload::AppSpec> apps;
    for (const std::string& family : splitList(options.get("apps", ""))) {
      apps.push_back(workload::makeApp(family, std::stoi(options.get("dataset", "1"))));
    }
    expects(!apps.empty(), "concurrent: --apps required");
    const double window = std::stod(options.get("window", "2000"));
    if (!resume && isLearningPolicy(options.get("policy", ""))) {
      simSeconds += runner.runConcurrent(apps, *bundle.policy, window).duration;  // learn
      if (bundle.manager && !options.has("live")) bundle.manager->freeze();
    }
    result = runner.runConcurrent(apps, *bundle.policy, window);
  } else {
    std::vector<workload::AppSpec> apps;
    if (options.command == "inter") {
      for (const std::string& family : splitList(options.get("apps", ""))) {
        apps.push_back(workload::makeApp(family, std::stoi(options.get("dataset", "1"))));
      }
      expects(!apps.empty(), "inter: --apps required");
    } else {
      apps.push_back(workload::makeApp(options.get("app", "tachyon"),
                                       std::stoi(options.get("dataset", "1"))));
    }
    const workload::Scenario eval = workload::Scenario::of(apps);
    if (!resume && isLearningPolicy(options.get("policy", ""))) {
      std::vector<workload::AppSpec> trainApps;
      for (int pass = 0; pass < trainPasses; ++pass) {
        trainApps.insert(trainApps.end(), apps.begin(), apps.end());
      }
      simSeconds += runner.run(workload::Scenario::of(trainApps), *bundle.policy).duration;
      if (bundle.manager && !options.has("live")) bundle.manager->freeze();
    }
    result = runner.run(eval, *bundle.policy);
  }
  simSeconds += result.duration;
  const double simWallMs = static_cast<double>(obs::wallClockNs() - simStartNs) / 1e6;

  printResult(result);
  if (bundle.manager != nullptr) {
    std::cout << "learning: " << bundle.manager->epochCount() << " epochs, "
              << bundle.manager->epochsToConvergence() << " to convergence, "
              << bundle.manager->interDetections() << " inter / "
              << bundle.manager->intraDetections() << " intra detections\n";
  }
  if (options.has("csv")) writeTraceCsv(result, options.get("csv", "trace.csv"));
  if (options.has("json")) {
    bench::ReportMeta meta;
    meta.wallMs = simWallMs;
    meta.simSeconds = simSeconds;
    obsSetup.collectInto(meta);
    TextTable summary({"policy", "exec (s)", "avg T (C)", "peak T (C)",
                       "TC-MTTF (y)", "aging MTTF (y)", "dyn energy (kJ)"});
    summary.row()
        .cell(result.policyName)
        .cell(result.duration, 0)
        .cell(result.reliability.averageTemp, 1)
        .cell(result.reliability.peakTemp, 1)
        .cell(result.reliability.cyclingMttfYears, 2)
        .cell(result.reliability.agingMttfYears, 2)
        .cell(result.dynamicEnergy / 1000.0, 2);
    bench::writeJsonReport(summary, options.command,
                           options.get("json", options.command + "_summary.json"),
                           meta);
  }
  obsSetup.finish();
  return 0;
}

/// `sweep`: fan the (app x policy) grid out over the exec::SweepRunner thread
/// pool. Learning policies train on `--train` back-to-back passes first and
/// are frozen for the evaluation run unless `--live`. Results print in grid
/// order, which is independent of `--jobs`; with `--events`/`--metrics` the
/// per-run observability streams are merged into the ambient session in the
/// same order.
int sweepCommand(const Options& options) {
  validateFlags(options,
                {"apps", "dataset", "policies", "jobs", "train", "live", "seed", "json"});
  ConfigFile config;
  if (options.has("config")) {
    std::ifstream in(options.get("config", ""));
    expects(in.good(), "cannot read config file");
    config = ConfigFile::parse(in);
  }
  core::RunnerConfig runnerConfig = core::runnerConfigFrom(config);
  if (options.has("big-little")) {
    runnerConfig.machine.coreTypes = platform::bigLittleCoreTypes();
  }
  loadFaults(options, runnerConfig);

  const bool supervise = options.has("supervise");
  const int dataset = std::stoi(options.get("dataset", "1"));
  const int trainPasses = std::stoi(options.get("train", "3"));
  const bool live = options.has("live");
  const std::uint64_t baseSeed =
      static_cast<std::uint64_t>(std::stoull(options.get("seed", "0")));
  const std::vector<std::string> families = splitList(options.get("apps", ""));
  const std::vector<std::string> policies =
      splitList(options.get("policies", "linux-ondemand,ge,proposed"));
  expects(!families.empty(), "sweep: --apps required");
  expects(!policies.empty(), "sweep: --policies must name at least one policy");
  checkPolicyMachine(policies, runnerConfig);

  // Grid order (apps outer, policies inner) fixes the output row order and
  // the per-run child seeds, independent of how the runs land on threads.
  std::vector<exec::RunSpec> specs;
  for (const std::string& family : families) {
    const workload::AppSpec app = workload::makeApp(family, dataset);
    for (const std::string& policyName : policies) {
      exec::RunSpec spec;
      spec.label = app.name + "/" + policyName;
      spec.scenario = workload::Scenario::of({app});
      if (isLearningPolicy(policyName)) {
        std::vector<workload::AppSpec> trainApps(
            static_cast<std::size_t>(trainPasses), app);
        spec.train = workload::Scenario::of(trainApps);
        spec.freezeAfterTrain = !live;
      }
      spec.runner = runnerConfig;
      spec.seed = baseSeed;
      spec.policy = [policyName, &config, supervise](std::uint64_t) {
        std::unique_ptr<core::ThermalPolicy> policy = makePolicy(policyName, config).policy;
        if (supervise) {
          policy = std::make_unique<core::SafetySupervisor>(
              std::move(policy), core::SafetySupervisorConfig{});
        }
        return policy;
      };
      specs.push_back(std::move(spec));
    }
  }

  exec::SweepOptions sweepOptions;
  sweepOptions.jobs = static_cast<std::size_t>(std::stoul(options.get("jobs", "0")));
  // A sweep writing a perf report wants the hot-scope attribution with it.
  sweepOptions.collectScopes = options.has("json");

  ObsSetup obsSetup(options);
  const exec::SweepResult sweep = exec::SweepRunner(sweepOptions).run(specs);

  TextTable table({"run", "exec (s)", "avg T (C)", "peak T (C)", "TC-MTTF (y)",
                   "aging MTTF (y)", "dyn energy (kJ)"});
  for (const exec::RunReport& report : sweep.runs) {
    const core::RunResult& result = report.result;
    table.row()
        .cell(report.label)
        .cell(result.duration, 0)
        .cell(result.reliability.averageTemp, 1)
        .cell(result.reliability.peakTemp, 1)
        .cell(result.reliability.cyclingMttfYears, 2)
        .cell(result.reliability.agingMttfYears, 2)
        .cell(result.dynamicEnergy / 1000.0, 2);
  }
  printBanner(std::cout, "sweep: " + std::to_string(families.size()) + " apps x " +
                             std::to_string(policies.size()) + " policies");
  table.print(std::cout);
  std::cout << "sweep: " << sweep.runs.size() << " runs in "
            << formatFixed(sweep.wallMs, 0) << " ms wall on " << sweep.jobs
            << " jobs (" << formatFixed(sweep.speedup(), 2)
            << "x vs back-to-back)\n";
  if (options.has("json")) {
    bench::writeJsonReport(table, "sweep",
                           options.get("json", "sweep_summary.json"),
                           bench::metaOf(sweep));
  }
  obsSetup.finish();
  return 0;
}

/// Directory holding the scenario *.toml files: `--scenarios DIR`, or the
/// `scenarios/` next to the usual launch points (repo root, build/,
/// build/tools/).
std::string scenarioDir(const Options& options) {
  if (options.has("scenarios")) return options.get("scenarios", "scenarios");
  for (const char* root : {".", "..", "../.."}) {
    const std::string dir = std::string(root) + "/scenarios";
    if (std::filesystem::is_directory(dir)) return dir;
  }
  throw PreconditionError(
      "cannot find scenarios/ (run from the repo root or pass --scenarios DIR)");
}

/// Every *.toml under the scenario directory, sorted for deterministic
/// lint/campaign order.
std::vector<std::string> scenarioFiles(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".toml") files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  expects(!files.empty(), "no *.toml scenarios under '" + dir + "'");
  return files;
}

/// `faults --lint [FILE1,FILE2]`: parse scenario files (all of scenarios/
/// when no list is given) and report every malformed one with the parser's
/// line-numbered message. Exit is nonzero iff any file failed — this is the
/// scenario gate scripts/check.sh runs.
int lintScenarios(const Options& options) {
  const std::string arg = options.get("lint", "true");
  const std::vector<std::string> files =
      arg == "true" ? scenarioFiles(scenarioDir(options)) : splitList(arg);
  int failures = 0;
  for (const std::string& file : files) {
    try {
      const fault::FaultPlan plan = fault::FaultPlan::fromFile(file);
      std::cout << "ok: " << file << " (" << plan.events.size() << " events)\n";
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      ++failures;
    }
  }
  std::cout << files.size() - static_cast<std::size_t>(failures) << "/" << files.size()
            << " scenarios valid\n";
  return failures == 0 ? 0 : 1;
}

/// `faults`: the campaign grid — every scenario file (plus the clean
/// baseline) x {linux, proposed} x {raw, supervised} — through the sweep
/// engine, reporting peak/MTTF deltas and the supervisor's accounting.
int faultsCommand(const Options& options) {
  validateFlags(options,
                {"scenarios", "lint", "apps", "dataset", "jobs", "train", "seed", "json"});
  if (options.has("lint")) return lintScenarios(options);

  ConfigFile config;
  if (options.has("config")) {
    std::ifstream in(options.get("config", ""));
    expects(in.good(), "cannot read config file");
    config = ConfigFile::parse(in);
  }

  bench::FaultCampaignOptions campaign;
  campaign.runner = core::runnerConfigFrom(config);
  core::requireProposedPolicyMachine(campaign.runner);  // the campaign runs proposed
  if (options.has("big-little")) {
    campaign.runner.machine.coreTypes = platform::bigLittleCoreTypes();
  }
  const int dataset = std::stoi(options.get("dataset", "1"));
  for (const std::string& family :
       splitList(options.get("apps", "tachyon,mpeg_dec"))) {
    campaign.apps.push_back(workload::makeApp(family, dataset));
  }
  expects(!campaign.apps.empty(), "faults: --apps must name at least one app");
  campaign.trainRepeats = std::stoi(options.get("train", "2"));

  campaign.scenarios.push_back({"clean", fault::FaultPlan{}});
  for (const std::string& file : scenarioFiles(scenarioDir(options))) {
    campaign.scenarios.push_back(
        {std::filesystem::path(file).stem().string(), fault::FaultPlan::fromFile(file)});
  }

  std::vector<exec::RunSpec> specs = bench::faultCampaignSpecs(campaign);
  const std::uint64_t baseSeed =
      static_cast<std::uint64_t>(std::stoull(options.get("seed", "0")));
  for (exec::RunSpec& spec : specs) spec.seed = baseSeed;

  exec::SweepOptions sweepOptions;
  sweepOptions.jobs = static_cast<std::size_t>(std::stoul(options.get("jobs", "0")));

  ObsSetup obsSetup(options);
  const exec::SweepResult sweep = exec::SweepRunner(sweepOptions).run(specs);
  const TextTable table = bench::faultCampaignTable(specs, sweep);
  printBanner(std::cout, "fault campaign: " +
                             std::to_string(campaign.scenarios.size()) +
                             " scenarios, raw vs supervised");
  table.print(std::cout);
  std::cout << "sweep: " << sweep.runs.size() << " runs in "
            << formatFixed(sweep.wallMs, 0) << " ms wall on " << sweep.jobs
            << " jobs (" << formatFixed(sweep.speedup(), 2)
            << "x vs back-to-back)\n";
  if (options.has("json")) {
    bench::writeJsonReport(table, "fault_campaign",
                           options.get("json", "fault_campaign.json"),
                           bench::metaOf(sweep));
  }
  obsSetup.finish();
  return 0;
}

std::string hexU64(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `train`: train the proposed ThermalManager on --train back-to-back passes
/// of --app and write the checkpoint via the runner's save-at-end hook (the
/// same code path RunnerConfig::saveCheckpointAtEnd exercises everywhere).
int trainCommand(const Options& options) {
  validateFlags(options, {"app", "dataset", "train", "seed", "out"});
  ConfigFile config;
  if (options.has("config")) {
    std::ifstream in(options.get("config", ""));
    expects(in.good(), "cannot read config file");
    config = ConfigFile::parse(in);
  }
  core::RunnerConfig runnerConfig = core::runnerConfigFrom(config);
  if (options.has("big-little")) {
    runnerConfig.machine.coreTypes = platform::bigLittleCoreTypes();
  }
  loadFaults(options, runnerConfig);
  core::requireProposedPolicyMachine(runnerConfig);
  const std::string out = options.get("out", "policy.ckpt");
  runnerConfig.saveCheckpointAtEnd = out;
  const core::PolicyRunner runner(runnerConfig);

  core::ThermalManagerConfig managerConfig = core::managerConfigFrom(config);
  if (options.has("seed")) {
    managerConfig.seed = static_cast<std::uint64_t>(std::stoull(options.get("seed", "42")));
  }
  auto manager = std::make_unique<core::ThermalManager>(
      managerConfig, core::ActionSpace::standard(core::kProposedPolicyCores));
  core::ThermalManager* managerPtr = manager.get();
  PolicyBundle bundle;
  bundle.manager = managerPtr;
  bundle.policy = std::move(manager);
  superviseIfRequested(options, bundle);

  const workload::AppSpec app = workload::makeApp(
      options.get("app", "tachyon"), std::stoi(options.get("dataset", "1")));
  const int trainPasses = std::stoi(options.get("train", "3"));
  expects(trainPasses > 0, "train: --train must be >= 1");
  const std::vector<workload::AppSpec> trainApps(static_cast<std::size_t>(trainPasses),
                                                 app);

  ObsSetup obsSetup(options);
  const core::RunResult result =
      runner.run(workload::Scenario::of(trainApps), *bundle.policy);

  std::cout << "trained " << result.policyName << " on " << trainPasses << "x "
            << app.name << " (" << formatFixed(result.duration, 0) << " s simulated, "
            << managerPtr->epochCount() << " epochs, "
            << managerPtr->epochsToConvergence() << " to convergence)\n";
  std::cout << "wrote " << out << " (fingerprint "
            << hexU64(managerPtr->configFingerprint()) << ")\n";
  obsSetup.finish();
  return 0;
}

/// `eval`: rebuild the manager entirely from a checkpoint file, freeze it
/// (inference-only — no Q update, no exploration) and evaluate.
int evalCommand(const Options& options) {
  validateFlags(options, {"policy", "app", "dataset", "csv"});
  ConfigFile config;
  if (options.has("config")) {
    std::ifstream in(options.get("config", ""));
    expects(in.good(), "cannot read config file");
    config = ConfigFile::parse(in);
  }
  core::RunnerConfig runnerConfig = core::runnerConfigFrom(config);
  if (options.has("big-little")) {
    runnerConfig.machine.coreTypes = platform::bigLittleCoreTypes();
  }
  loadFaults(options, runnerConfig);
  const core::PolicyRunner runner(runnerConfig);

  expects(options.has("policy"), "eval: --policy FILE (a checkpoint) is required");
  std::unique_ptr<core::ThermalManager> manager =
      core::loadManagerFromCheckpoint(options.get("policy", "policy.ckpt"));
  manager->freeze();
  PolicyBundle bundle;
  bundle.manager = manager.get();
  bundle.policy = std::move(manager);
  superviseIfRequested(options, bundle);

  const workload::AppSpec app = workload::makeApp(
      options.get("app", "tachyon"), std::stoi(options.get("dataset", "1")));

  ObsSetup obsSetup(options);
  const core::RunResult result =
      runner.run(workload::Scenario::of({app}), *bundle.policy);
  printResult(result);
  if (options.has("csv")) writeTraceCsv(result, options.get("csv", "trace.csv"));
  obsSetup.finish();
  return 0;
}

/// `inspect FILE [--json]`: decode + validate a checkpoint and summarize it.
/// Any corruption surfaces here as the reader's diagnostic error (nonzero
/// exit), so `inspect` doubles as a checkpoint linter.
int inspectCommand(const Options& options) {
  validateFlags(options, {"json"}, /*withCommon=*/false, /*allowPositionals=*/true);
  expects(options.positionals.size() == 1,
          "inspect: exactly one FILE argument is required");
  const std::string path = options.positionals.front();
  const store::CheckpointImage image = store::readCheckpointFile(path);
  const store::PolicyCheckpoint ckpt = store::decodePolicyCheckpoint(image, path);
  const std::vector<store::SectionInfo> sections = store::describeImage(image);

  std::size_t touched = 0;
  for (const std::uint8_t byte : ckpt.qTouched) touched += byte;
  const double coverage = ckpt.qTouched.empty()
                              ? 0.0
                              : static_cast<double>(touched) /
                                    static_cast<double>(ckpt.qTouched.size());
  const std::uint64_t states = ckpt.meta.stressBins * ckpt.meta.agingBins;

  if (options.has("json")) {
    std::ostringstream out;
    out << "{\"file\":\"" << jsonEscape(path) << "\""
        << ",\"format_version\":" << image.version
        << ",\"fingerprint\":\"" << hexU64(image.fingerprint) << "\""
        << ",\"action_space\":\"" << jsonEscape(ckpt.meta.actionSpec) << "\""
        << ",\"actions\":" << ckpt.meta.actionNames.size()
        << ",\"stress_bins\":" << ckpt.meta.stressBins
        << ",\"aging_bins\":" << ckpt.meta.agingBins
        << ",\"states\":" << states
        << ",\"q_entries\":" << ckpt.qValues.size()
        << ",\"q_touched\":" << touched
        << ",\"q_coverage\":" << formatFixed(coverage, 4)
        << ",\"schedule_step\":" << ckpt.scheduleStep
        << ",\"epochs\":" << ckpt.epochLog.size()
        << ",\"frozen\":" << (ckpt.frozen ? "true" : "false")
        << ",\"has_qexp\":" << (ckpt.hasQExp ? "true" : "false")
        << ",\"inter_detections\":" << ckpt.interDetections
        << ",\"intra_detections\":" << ckpt.intraDetections
        << ",\"seed\":" << ckpt.meta.seed
        << ",\"sections\":[";
    for (std::size_t i = 0; i < sections.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"id\":" << sections[i].id
          << ",\"name\":\"" << store::sectionName(sections[i].id) << "\""
          << ",\"offset\":" << sections[i].offset
          << ",\"payload_bytes\":" << sections[i].payloadBytes
          << ",\"crc32\":\"" << hexU64(sections[i].crc) << "\"}";
    }
    out << "]}";
    std::cout << out.str() << "\n";
    return 0;
  }

  printBanner(std::cout, "checkpoint " + path);
  TextTable table({"field", "value"});
  table.row().cell("format version").cell(static_cast<long long>(image.version));
  table.row().cell("config fingerprint").cell(hexU64(image.fingerprint));
  table.row().cell("action space").cell(ckpt.meta.actionSpec);
  table.row().cell("actions").cell(static_cast<long long>(ckpt.meta.actionNames.size()));
  table.row().cell("states (stress x aging)").cell(
      std::to_string(ckpt.meta.stressBins) + " x " + std::to_string(ckpt.meta.agingBins) +
      " = " + std::to_string(states));
  table.row().cell("Q coverage").cell(std::to_string(touched) + "/" +
                                      std::to_string(ckpt.qTouched.size()) + " (" +
                                      formatFixed(100.0 * coverage, 1) + "%)");
  table.row().cell("learning-rate step").cell(static_cast<long long>(ckpt.scheduleStep));
  table.row().cell("epochs logged").cell(static_cast<long long>(ckpt.epochLog.size()));
  table.row().cell("frozen").cell(ckpt.frozen ? "yes" : "no");
  table.row().cell("Q_exp snapshot").cell(ckpt.hasQExp ? "present" : "absent");
  table.row().cell("inter/intra detections").cell(
      std::to_string(ckpt.interDetections) + " / " + std::to_string(ckpt.intraDetections));
  table.row().cell("seed").cell(static_cast<long long>(ckpt.meta.seed));
  table.print(std::cout);

  TextTable layout({"id", "section", "offset", "payload (B)", "crc32"});
  for (const store::SectionInfo& info : sections) {
    layout.row()
        .cell(static_cast<long long>(info.id))
        .cell(store::sectionName(info.id))
        .cell(static_cast<long long>(info.offset))
        .cell(static_cast<long long>(info.payloadBytes))
        .cell(hexU64(info.crc));
  }
  layout.print(std::cout);
  return 0;
}

/// Writes the whole buffer, retrying partial writes; false when the peer is
/// gone (the serve loop then drops the connection and accepts the next one).
bool sendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Single-connection AF_UNIX accept loop: clients connect one at a time and
/// speak the newline-delimited protocol; the session (and the fleet behind
/// it) persists across connections until a shutdown command arrives.
int serveSocket(serve::FleetService& service, const std::string& path) {
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  expects(listener >= 0, "serve: cannot create an AF_UNIX socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  expects(path.size() < sizeof(addr.sun_path), "serve: socket path too long");
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  expects(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
          "serve: cannot bind '" + path + "'");
  expects(::listen(listener, 1) == 0, "serve: cannot listen on '" + path + "'");
  std::cout << "serving on " << path << "\n" << std::flush;

  serve::ServeSession session(service, path);
  while (!session.shutdownRequested()) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) break;
    std::string buffer;
    char chunk[4096];
    bool peerAlive = true;
    while (peerAlive && !session.shutdownRequested()) {
      const ssize_t n = ::read(conn, chunk, sizeof chunk);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t newline = 0;
      while ((newline = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        const std::string response = session.handleLine(line);
        if (!response.empty() && !sendAll(conn, response + "\n")) {
          peerAlive = false;
          break;
        }
        if (session.shutdownRequested()) break;
      }
    }
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

/// `serve`: host a tenant fleet behind the line protocol — stdin/stdout by
/// default, or an AF_UNIX socket with --socket. See serve/protocol.hpp for
/// the grammar and docs/ARCHITECTURE.md "serve (fleet service)".
int serveCommand(const Options& options) {
  validateFlags(options,
                {"socket", "slice", "train-time", "jobs", "cache-cap",
                 "queue-depth", "max-tenants", "events", "chrome-trace", "metrics"},
                /*withCommon=*/false);
  serve::FleetServiceConfig config;
  config.jobs = static_cast<std::size_t>(std::stoul(options.get("jobs", "0")));
  config.sliceSeconds = std::stod(options.get("slice", "40"));
  config.trainSimTime = std::stod(options.get("train-time", "2000"));
  config.cacheCapacity = static_cast<std::size_t>(std::stoul(options.get("cache-cap", "8")));
  config.admitQueueDepth =
      static_cast<std::size_t>(std::stoul(options.get("queue-depth", "64")));
  config.maxTenants = static_cast<std::size_t>(std::stoul(options.get("max-tenants", "4096")));

  ObsSetup obsSetup(options);
  serve::FleetService service(config);
  int exitCode = 0;
  if (options.has("socket")) {
    exitCode = serveSocket(service, options.get("socket", "rltherm.sock"));
  } else {
    serve::ServeSession session(service, "stdin");
    std::string line;
    while (std::getline(std::cin, line)) {
      const std::string response = session.handleLine(line);
      if (!response.empty()) std::cout << response << "\n" << std::flush;
      if (session.shutdownRequested()) break;
    }
  }
  obsSetup.finish();
  return exitCode;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parseArgs(argc, argv);
    if (options.command == "list-apps") {
      validateFlags(options, {}, /*withCommon=*/false);
      return commandListApps();
    }
    if (options.command == "compare") return compareCommand(options);
    if (options.command == "sweep") return sweepCommand(options);
    if (options.command == "faults") return faultsCommand(options);
    if (options.command == "train") return trainCommand(options);
    if (options.command == "eval") return evalCommand(options);
    if (options.command == "inspect") return inspectCommand(options);
    if (options.command == "serve") return serveCommand(options);
    if (options.command == "run" || options.command == "inter" ||
        options.command == "concurrent") {
      return runCommand(options);
    }
    usage();
    return options.command.empty() ? 1 : (options.command == "help" ? 0 : 1);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
