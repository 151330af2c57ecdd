// End-to-end benchmark of the simulator: one process per workload run.
//
//   perfbench --workload <lumped_inter|grid64_ondemand|fleet_churn>
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 times the workload with the program's telemetry detached and
// reports the end-to-end metrics. --trace 1 runs every seed (or fleet pass)
// three ways, alternating for S seconds: detached, with a MetricsRegistry +
// TraceCollector attached, and through the benchmark's own span-traced
// loop. It reports the per-layer metrics, the unattributed residual and both
// overheads, and writes the spans to DIR/spans-<workload>.tsv. Every run
// prints a table, then one JSON line with every metric, then, last, the
// summary line. perfbench/README.md documents every metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#if __has_include("thermal/expop_cache.hpp")
#include "thermal/expop_cache.hpp"
#define PERFBENCH_HAS_EXPOP_CACHE 1
#endif

#include "core/baselines.hpp"
#include "core/manager_checkpoint.hpp"
#include "core/runner.hpp"
#include "core/thermal_manager.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "platform/machine.hpp"
#include "reliability/analyzer.hpp"
#include "serve/fleet.hpp"
#include "store/policy_checkpoint.hpp"
#include "workload/app_spec.hpp"
#include "workload/driver.hpp"

namespace perfbench {
namespace {

using namespace rltherm;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir = ".";
};

/// Metrics in print order, plus the operation accounting of the run.
class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void attempt() { ++attempted_; }
  void fail(const std::string& why) {
    ++failed_;
    std::cerr << "perfbench: FAILED: " << why << "\n";
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Result digests: bit-identity witnesses for the repeat and traced checks.

class Digest {
 public:
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::uint64_t digestOf(const core::RunResult& r) {
  Digest d;
  d.mix(r.duration);
  d.mix(static_cast<std::uint64_t>(r.timedOut));
  for (const auto& trace : r.coreTraces) {
    d.mix(static_cast<std::uint64_t>(trace.size()));
    for (const Celsius t : trace) d.mix(static_cast<double>(t));
  }
  for (const auto& c : r.completions) {
    d.mix(c.startTime);
    d.mix(c.endTime);
    d.mix(static_cast<std::uint64_t>(c.iterations));
  }
  const auto& rel = r.reliability;
  d.mix(static_cast<double>(rel.averageTemp));
  d.mix(static_cast<double>(rel.peakTemp));
  d.mix(rel.agingMttfYears);
  d.mix(rel.cyclingMttfYears);
  d.mix(rel.stress);
  d.mix(r.dynamicEnergy);
  d.mix(r.staticEnergy);
  d.mix(r.counters.instructions);
  d.mix(r.counters.cycles);
  d.mix(r.counters.cacheMisses);
  d.mix(r.counters.pageFaults);
  d.mix(r.counters.contextSwitches);
  d.mix(r.counters.migrations);
  return d.value();
}

/// The simulated outcomes a user reads off a RunResult.
struct SimOutcome {
  double execTimeS = 0.0;
  double peakTempC = 0.0;
  double agingMttfY = 0.0;
  double dynamicEnergyKj = 0.0;
};

[[nodiscard]] SimOutcome outcomeOf(const core::RunResult& r) {
  return {r.duration, static_cast<double>(r.reliability.peakTemp),
          r.reliability.agingMttfYears, r.dynamicEnergy / 1000.0};
}

void addOutcomeMedians(Report& report, const std::vector<SimOutcome>& outcomes) {
  const auto med = [&](double SimOutcome::*field) {
    std::vector<double> v;
    for (const SimOutcome& o : outcomes) v.push_back(o.*field);
    return median(v);
  };
  report.add("exec_time_s", med(&SimOutcome::execTimeS), "sim_s");
  report.add("peak_temp_c", med(&SimOutcome::peakTempC), "C");
  report.add("aging_mttf_y", med(&SimOutcome::agingMttfY), "y");
  report.add("dynamic_energy_kj", med(&SimOutcome::dynamicEnergyKj), "kJ");
}

// ---------------------------------------------------------------------------
// The traced loop: PolicyRunner::run's sequential loop for a run without
// faults, replication or checkpoint hooks, with a span around every call
// into a layer. Its outputs must be bit-identical to PolicyRunner::run.

[[nodiscard]] core::RunResult tracedRun(const core::RunnerConfig& config,
                                        const workload::Scenario& scenario,
                                        core::ThermalPolicy& policy,
                                        const core::ThermalManager* manager,
                                        SpanTrace& trace) {
  trace.open(kMachineBuild);
  platform::Machine machine(config.machine);
  workload::WorkloadDriver driver(machine, scenario);
  trace.close();
  core::PolicyContext ctx{machine, driver};

  core::RunResult result;
  result.policyName = policy.name();
  result.scenarioName = scenario.name;
  result.traceInterval = config.traceInterval;
  result.coreTraces.assign(machine.coreCount(), {});
  policy.onStart(ctx);

  Seconds nextSample = policy.samplingInterval() > 0.0 ? policy.samplingInterval() : -1.0;
  Seconds nextTrace = config.traceInterval;
  bool running = true;
  while (running && machine.now() < config.maxSimTime) {
    trace.open(kTick);
    running = driver.tick();
    trace.close();
    if (driver.appJustSwitched() && policy.wantsAppSwitchSignal()) policy.onAppSwitch(ctx);

    const Seconds now = machine.now();
    if (nextSample > 0.0 && now + 1e-9 >= nextSample) {
      trace.open(kReadSensors);
      const std::vector<Celsius> readings = machine.readSensors();
      trace.close();
      const std::size_t epochsBefore = manager != nullptr ? manager->epochCount() : 0;
      trace.open(kSample);
      policy.onSample(ctx, readings);
      const bool closedEpoch = manager != nullptr && manager->epochCount() != epochsBefore;
      trace.close(closedEpoch ? std::optional<Layer>(kEpoch) : std::nullopt);
      machine.perfCounters().recordMonitoringOverhead(config.monitorCacheMissesPerSample,
                                                      config.monitorPageFaultsPerSample);
      nextSample += std::max(policy.samplingInterval(), machine.tickLength());
    }
    if (now + 1e-9 >= nextTrace) {
      trace.open(kTrueTemps);
      const std::vector<Celsius> truth = machine.trueCoreTemperatures();
      trace.close();
      for (std::size_t c = 0; c < truth.size(); ++c) result.coreTraces[c].push_back(truth[c]);
      nextTrace += config.traceInterval;
    }
  }
  result.timedOut = running;
  result.duration = machine.now();
  result.completions = driver.completions();

  // PolicyRunner's result finalization: trim the settling and teardown
  // windows, analyze, copy the energy and counter accounting.
  const auto skipHead = static_cast<std::size_t>(config.analysisWarmup / config.traceInterval);
  const auto skipTail =
      static_cast<std::size_t>(config.analysisCooldown / config.traceInterval);
  std::vector<std::vector<Celsius>> analyzed;
  for (const std::vector<Celsius>& t : result.coreTraces) {
    if (t.size() > (skipHead + skipTail) * 2) {
      analyzed.emplace_back(t.begin() + static_cast<std::ptrdiff_t>(skipHead),
                            t.end() - static_cast<std::ptrdiff_t>(skipTail));
    } else {
      analyzed.push_back(t);
    }
  }
  trace.open(kAnalyze);
  result.reliability = reliability::ReliabilityAnalyzer(config.analyzer)
                           .analyzeChip(analyzed, config.traceInterval);
  trace.close();
  const power::EnergyMeter& meter = machine.energyMeter();
  result.dynamicEnergy = meter.dynamicEnergy();
  result.staticEnergy = meter.staticEnergy();
  result.averageDynamicPower = meter.averageDynamicPower();
  result.averageTotalPower = meter.averageTotalPower();
  result.counters = machine.perfCounters().sample();
  return result;
}

using LayerTimes = std::array<LayerTime, kLayerCount>;

[[nodiscard]] double unattributedPct(const LayerTimes& layers) {
  const LayerTime& loop = layers.at(kLoop);
  return 100.0 * static_cast<double>(loop.selfNs) / static_cast<double>(loop.totalNs);
}

/// Per-layer figures of the traced single-simulation runs.
void addLoopLayers(Report& report, const LayerTimes& layers, bool sampled) {
  const auto perCall = [&](Layer layer, double scale) {
    const LayerTime& t = layers.at(layer);
    if (t.calls == 0) throw std::logic_error(std::string("no spans for ") + kLayerNames.at(layer));
    return static_cast<double>(t.selfNs) / static_cast<double>(t.calls) / scale;
  };
  report.add("workload.tick_ns", perCall(kTick, 1.0), "ns");
  report.add("platform.true_temps_ns", perCall(kTrueTemps, 1.0), "ns");
  report.add("platform.machine_build_ms", perCall(kMachineBuild, 1e6), "ms");
  report.add("reliability.analyze_ms", perCall(kAnalyze, 1e6), "ms");
  if (sampled) {
    report.add("platform.read_sensors_ns", perCall(kReadSensors, 1.0), "ns");
    report.add("core.sample_ns", perCall(kSample, 1.0), "ns");
    report.add("core.epoch_us", perCall(kEpoch, 1e3), "us");
    report.add("core.epochs", static_cast<double>(layers.at(kEpoch).calls), "count");
    report.add("store.restore_us", perCall(kRestore, 1e3), "us");
  }
  report.add("workload.ticks", static_cast<double>(layers.at(kTick).calls), "count");
  report.add("loop.unattributed_pct", unattributedPct(layers), "%");
}

void writeSpans(const Options& options, const SpanTrace& trace) {
  std::filesystem::create_directories(options.outDir);
  const std::filesystem::path path =
      std::filesystem::path(options.outDir) / ("spans-" + options.workload + ".tsv");
  std::ofstream out(path);
  trace.write(out);
  std::cout << "spans: " << trace.spans().size() << " written to " << path.string() << "\n";
}

/// Runs `body(i)` for i = 0, 1, ... until `seconds` have elapsed and at
/// least `minCount` calls were made.
void repeatFor(double seconds, std::size_t minCount,
               const std::function<void(std::size_t)>& body) {
  const Clock::time_point start = Clock::now();
  std::size_t i = 0;
  while (i < minCount || secondsSince(start) < seconds) body(i++);
}

/// A timed sample's rate (simulated s per host s) and the reference time
/// measured just before it (reference.hpp).
struct RateSample {
  double rate = 0.0;
  double refS = 0.0;

  [[nodiscard]] double perRef() const noexcept { return rate * refS; }
};

/// Samples a timed phase needs: ten on either side of the median.
[[nodiscard]] std::size_t minRateSamples() { return minSamplesFor(0.5); }

[[nodiscard]] double medianPerRef(const std::vector<RateSample>& samples) {
  std::vector<double> v;
  for (const RateSample& s : samples) v.push_back(s.perRef());
  return median(v);
}

void addRates(Report& report, const std::vector<RateSample>& samples) {
  std::vector<double> rates;
  std::vector<double> refMs;
  for (const RateSample& s : samples) {
    rates.push_back(s.rate);
    refMs.push_back(s.refS * 1e3);
  }
  report.add("sim_s_per_ref", medianPerRef(samples), "sim_s/ref");
  report.add("sim_rate", median(rates), "sim_s/s");
  report.add("ref_ms", median(refMs), "ms");
  report.add("rate_samples", static_cast<double>(samples.size()), "count");
}

[[nodiscard]] double overheadPct(double baseRate, double rate) {
  return 100.0 * (baseRate - rate) / baseRate;
}

/// Spans kept in memory and written out per traced run. Runs past the
/// budget are still traced and counted; only their spans are dropped.
constexpr std::size_t kSpanBudget = 600000;

// ---------------------------------------------------------------------------
// Single-simulation workloads. A simulation is the attempted operation; it
// fails when it times out, when a repeat of its seed differs, or when its
// traced replay differs from PolicyRunner::run.

struct SimPlan {
  core::RunnerConfig config;
  std::function<workload::Scenario(std::size_t)> scenarioOf;
  /// Builds simulation i's policy (restoring it where the workload does so);
  /// called inside the timed interval.
  std::function<std::unique_ptr<core::ThermalPolicy>(std::size_t)> policyOf;
  std::uint64_t seed = 0;  ///< simulation i's sensor seed derives from it
  bool sampled = false;  ///< the policy samples sensors (a ThermalManager)
};

struct SimRecord {
  RateSample sample;
  std::uint64_t digest = 0;
  SimOutcome outcome;
};

class SimWorkload {
 public:
  explicit SimWorkload(SimPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] bool sampled() const noexcept { return plan_.sampled; }

  SimRecord runOne(std::size_t i, Report& report) const {
    const core::RunnerConfig config = configOf(i);
    const workload::Scenario scenario = plan_.scenarioOf(i);
    const double refS = referenceSeconds();
    const Clock::time_point start = Clock::now();
    const std::unique_ptr<core::ThermalPolicy> policy = plan_.policyOf(i);
    const core::RunResult result = core::PolicyRunner(config).run(scenario, *policy);
    const double wall = secondsSince(start);

    check(result, i, report);
    return {{result.duration / wall, refS}, digestOf(result), outcomeOf(result)};
  }

  SimRecord runAttached(std::size_t i, Report& report) const {
    obs::MetricsRegistry metrics;
    obs::TraceCollector collector;
    obs::Session session{&metrics, nullptr, &collector};
    const obs::ScopedSession guard(session);
    return runOne(i, report);
  }

  SimRecord runTraced(std::size_t i, SpanTrace& trace, Report& report) const {
    const core::RunnerConfig config = configOf(i);
    const workload::Scenario scenario = plan_.scenarioOf(i);
    trace.setRun(static_cast<std::uint32_t>(i));
    const double refS = referenceSeconds();
    const Clock::time_point start = Clock::now();
    trace.open(kLoop);
    if (plan_.sampled) trace.open(kRestore);
    const std::unique_ptr<core::ThermalPolicy> policy = plan_.policyOf(i);
    if (plan_.sampled) trace.close();
    const core::RunResult result = tracedRun(config, scenario, *policy,
                                             core::checkpointTarget(*policy), trace);
    trace.close();
    const double wall = secondsSince(start);
    check(result, i, report);
    return {{result.duration / wall, refS}, digestOf(result), outcomeOf(result)};
  }

 private:
  [[nodiscard]] core::RunnerConfig configOf(std::size_t i) const {
    core::RunnerConfig config = plan_.config;
    config.machine.sensorSeed = deriveSeed(plan_.seed, Stream::kEvalSensor, i);
    return config;
  }

  void check(const core::RunResult& result, std::size_t i, Report& report) const {
    report.attempt();
    if (result.timedOut) report.fail("simulation " + std::to_string(i) + " timed out");
  }

  SimPlan plan_;
};

/// The timed phase shared by lumped_inter and grid64_ondemand; `between`
/// runs after each seed, outside the timed simulations.
void measureSims(const Options& options, const SimWorkload& sims, Report& report,
                 const std::function<void()>& between = {}) {
  const auto samplesOf = [](const std::vector<SimRecord>& records) {
    std::vector<RateSample> samples;
    for (const SimRecord& r : records) samples.push_back(r.sample);
    return samples;
  };

  if (!options.trace) {
    std::vector<SimRecord> records;
    repeatFor(options.seconds, minRateSamples(), [&](std::size_t i) {
      records.push_back(sims.runOne(i, report));
      if (between) between();
    });
    // Repeat check: the first seed again must give bit-identical outputs.
    if (sims.runOne(0, report).digest != records[0].digest) {
      report.fail("a repeat of simulation 0 differs");
    }
    // Outcomes over a fixed count of seeds, so they do not depend on speed.
    std::vector<SimOutcome> outcomes;
    for (std::size_t i = 0; i < minRateSamples(); ++i) outcomes.push_back(records[i].outcome);
    addRates(report, samplesOf(records));
    addOutcomeMedians(report, outcomes);
    return;
  }

  // Detached, attached and traced runs of each seed alternate, so a drift
  // in host speed biases none of the three.
  std::vector<SimRecord> detached;
  std::vector<SimRecord> attached;
  std::vector<SimRecord> traced;
  SpanTrace trace(kSpanBudget);
  LayerTimes layers{};
  repeatFor(options.seconds, 3, [&](std::size_t i) {
    detached.push_back(sims.runOne(i, report));
    attached.push_back(sims.runAttached(i, report));
    if (attached.back().digest != detached.back().digest) {
      report.fail("attached telemetry changed simulation " + std::to_string(i));
    }
    const std::size_t mark = trace.spans().size();
    traced.push_back(sims.runTraced(i, trace, report));
    if (traced.back().digest != detached.back().digest) {
      report.fail("traced loop differs from PolicyRunner::run on simulation " +
                  std::to_string(i));
    }
    addLayerTimes(layers, trace.spans(), mark);
    if (trace.spans().size() > kSpanBudget) trace.truncate(mark);
    if (between) between();
  });
  const double rate = medianPerRef(samplesOf(detached));
  addLoopLayers(report, layers, sims.sampled());
  report.add("trace.overhead_pct", overheadPct(rate, medianPerRef(samplesOf(traced))), "%");
  report.add("obs.attached_overhead_pct",
             overheadPct(rate, medianPerRef(samplesOf(attached))), "%");
  report.add("simulations", static_cast<double>(traced.size()), "count");
  writeSpans(options, trace);
}

[[nodiscard]] workload::Scenario interScenario() {
  return workload::Scenario::of({workload::makeApp("mpeg_dec", 1),
                                 workload::makeApp("tachyon", 1),
                                 workload::makeApp("face_rec", 1)});
}

/// lumped_inter: the default 6-node quad-core under the proposed manager.
/// Set-up trains once on the repeated scenario and serializes the
/// checkpoint; every timed simulation restores a live manager from it.
void runLumped(const Options& options, Report& report) {
  const workload::Scenario scenario = interScenario();
  std::vector<workload::AppSpec> trainApps;
  for (int r = 0; r < 3; ++r) {
    trainApps.insert(trainApps.end(), scenario.apps.begin(), scenario.apps.end());
  }
  const workload::Scenario trainScenario = workload::Scenario::of(trainApps);

  // One set-up: train on the repeated scenario and serialize the checkpoint.
  // Set-ups repeat before the timed phase and after every 32nd timed seed,
  // so their median sees the same host as the simulations.
  std::vector<double> setupS;
  std::vector<double> trainS;
  std::vector<std::uint8_t> checkpoint;
  const auto setUp = [&] {
    const Clock::time_point start = Clock::now();
    core::ThermalManagerConfig managerConfig;
    managerConfig.seed = deriveSeed(options.seed, Stream::kTrain, 0);
    core::ThermalManager trainer(managerConfig, core::ActionSpace::standard(4));
    core::RunnerConfig runnerConfig;
    runnerConfig.machine.sensorSeed = deriveSeed(options.seed, Stream::kTrain, 1);
    const core::RunResult trained = core::PolicyRunner(runnerConfig).run(trainScenario, trainer);
    trainS.push_back(secondsSince(start));
    std::vector<std::uint8_t> bytes = store::serializePolicyCheckpoint(trainer.captureCheckpoint());
    setupS.push_back(secondsSince(start));
    report.attempt();
    if (trained.timedOut) report.fail("training run timed out");
    if (!checkpoint.empty() && bytes != checkpoint) {
      report.fail("a repeat of the training set-up differs");
    }
    checkpoint = std::move(bytes);
  };
  constexpr int kSetups = 3;
  for (int rep = 0; rep < kSetups; ++rep) setUp();

  if (options.trace) {
    // One serialization is tens of microseconds: time a batch.
    const std::unique_ptr<core::ThermalManager> probe = core::managerFromCheckpoint(
        store::loadPolicyCheckpointFromBuffer(checkpoint, "lumped_inter checkpoint"),
        "lumped_inter checkpoint");
    std::vector<double> serializeUs;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point start = Clock::now();
      const auto bytes = store::serializePolicyCheckpoint(probe->captureCheckpoint());
      serializeUs.push_back(secondsSince(start) * 1e6);
      if (bytes != checkpoint) {
        report.fail("serialize after restore is not byte-identical");
        break;
      }
    }
    report.add("store.serialize_us", median(serializeUs), "us");
  }

  SimPlan plan;
  plan.scenarioOf = [scenario](std::size_t) { return scenario; };
  plan.seed = options.seed;
  plan.policyOf = [&checkpoint](std::size_t) -> std::unique_ptr<core::ThermalPolicy> {
    return core::managerFromCheckpoint(
        store::loadPolicyCheckpointFromBuffer(checkpoint, "lumped_inter checkpoint"),
        "lumped_inter checkpoint");
  };
  plan.sampled = true;
  std::size_t seeds = 0;
  measureSims(options, SimWorkload(std::move(plan)), report, [&] {
    if (++seeds % 32 == 0) setUp();
  });
  if (options.trace) {
    report.add("setup.train_s", median(trainS), "s");
  } else {
    report.add("setup_s", median(setupS), "s");
  }
}

/// grid64_ondemand: 4x4 cells per core (66 RC nodes) under the Linux
/// ondemand governor. The process starts with a cold exp-operator cache;
/// set-up is the cold Machine construction, repeated from a cleared cache.
void runGrid64(const Options& options, Report& report) {
  core::RunnerConfig config;
  config.machine.thermalCellsPerCoreSide = 4;

  // One set-up: a Machine built from a cleared exp-operator cache, then a
  // warm one. A single set-up takes milliseconds, so they are repeated
  // between the timed simulations too, and see the same host as those.
  std::vector<double> coldMs;
  std::vector<double> warmMs;
  std::vector<Celsius> coldTemps;
  const auto setUp = [&] {
#ifdef PERFBENCH_HAS_EXPOP_CACHE
    thermal::ExpOperatorCache::instance().clear();
#endif
    Clock::time_point start = Clock::now();
    const platform::Machine cold(config.machine);
    coldMs.push_back(secondsSince(start) * 1e3);
    start = Clock::now();
    const platform::Machine warm(config.machine);
    warmMs.push_back(secondsSince(start) * 1e3);
    report.attempt();
    if (!coldTemps.empty() && cold.trueCoreTemperatures() != coldTemps) {
      report.fail("a repeat of the cold machine construction differs");
    }
    if (warm.trueCoreTemperatures() != cold.trueCoreTemperatures()) {
      report.fail("a warm machine construction differs from the cold one");
    }
    coldTemps = cold.trueCoreTemperatures();
  };
  constexpr int kSetups = 5;
  for (int rep = 0; rep < kSetups; ++rep) setUp();

  SimPlan plan;
  plan.config = config;
  plan.scenarioOf = [seed = options.seed](std::size_t i) {
    const AppChoice app = gridApp(seed, i);
    return workload::Scenario::of({workload::makeApp(app.family, app.dataset)});
  };
  plan.seed = options.seed;
  plan.policyOf = [](std::size_t) -> std::unique_ptr<core::ThermalPolicy> {
    return std::make_unique<core::StaticGovernorPolicy>(
        platform::GovernorSetting{platform::GovernorKind::Ondemand, 0.0});
  };
  measureSims(options, SimWorkload(std::move(plan)), report, setUp);
  if (!options.trace) {
    report.add("setup_s", median(coldMs) / 1e3, "s");
  } else {
    report.add("setup.prepare_ms", median(coldMs) - median(warmMs), "ms");
  }
}

// ---------------------------------------------------------------------------
// fleet_churn: a closed loop over a FleetService holding a steady
// population. Each pass evicts the oldest cohort, submits a new one and
// runs one batched pass. An admission is the attempted operation; it fails
// when submit() rejects it, when the tenant has no decision after its first
// pass, when it misses the warm-start cache in the timed phase, or when a
// sampled tenant's trace hash differs from a standalone replay.

constexpr std::size_t kLanes = 2;
constexpr std::size_t kPopulation = 128;
constexpr std::size_t kCohort = 16;
constexpr std::size_t kLifetimePasses = kPopulation / kCohort;

class FleetChurn {
 public:
  explicit FleetChurn(std::uint64_t seed) : seed_(seed), service_(configOf(seed)) {}

  [[nodiscard]] static serve::FleetServiceConfig configOf(std::uint64_t seed) {
    serve::FleetServiceConfig config;
    config.jobs = kLanes;
    config.maxTenants = kPopulation + 2 * kCohort;
    config.admitQueueDepth = kCohort;
    config.cacheCapacity = kConfigFamilies.size();
    config.trainSeed = deriveSeed(seed, Stream::kTrain, 0);
    return config;
  }

  /// Tenant i's admission. The first cohort opens with one tenant of every
  /// config family, so set-up trains each family exactly once.
  [[nodiscard]] serve::AdmitRequest requestOf(std::size_t i) const {
    const TenantInput input = tenantInput(seed_, i);
    const ConfigFamily& family = kConfigFamilies.at(input.configFamily);
    serve::AdmitRequest request;
    request.tenant = "tenant-" + std::to_string(i);
    request.family = input.app.family;
    request.dataset = input.app.dataset;
    request.seed = input.seed;
    request.gamma = family.gamma;
    request.stressBins = family.stressBins;
    request.agingBins = family.agingBins;
    return request;
  }

  /// Fills the population with kLifetimePasses staggered cohorts.
  void fill(Report& report) {
    for (std::size_t p = 0; p < kLifetimePasses; ++p) {
      (void)submitCohort(report, nullptr);
      (void)service_.runPass();
      ++passes_;
      refreshSimTimes();
    }
  }

  /// Digest of every tenant's status, for the set-up repeat check.
  [[nodiscard]] std::uint64_t populationDigest() const {
    Digest d;
    for (const std::string& name : service_.tenantNames()) {
      const auto status = service_.query(name);
      d.mix(status->traceHash);
    }
    return d.value();
  }

  struct PassTiming {
    double refS = 0.0;        ///< reference time measured before the pass
    double wallS = 0.0;       ///< evict + submit + runPass
    double passS = 0.0;       ///< runPass alone
    double simSeconds = 0.0;  ///< simulated time the tenants advanced
    std::size_t advanced = 0;
    std::vector<double> submitUs;
    std::vector<double> firstDecisionMs;
  };

  /// One closed-loop pass. With `trace`, spans cover each service call.
  PassTiming pass(Report& report, SpanTrace* trace) {
    // Bookkeeping outside the timed window: the leaving cohort's final trace
    // hashes (for the standalone replay check) and the training count.
    const std::vector<Resident> leaving(population_.begin(),
                                        population_.begin() + kCohort);
    population_.erase(population_.begin(), population_.begin() + kCohort);
    for (const Resident& resident : leaving) {
      const auto status = service_.query(resident.name);
      evicted_.push_back({resident.index, status->traceHash, passes_ - resident.admittedPass});
      lastSimTime_.erase(resident.name);
    }
    const std::uint64_t trainingsBefore = service_.stats().trainings;

    PassTiming timing;
    timing.refS = referenceSeconds();
    if (trace != nullptr) {
      trace->setRun(static_cast<std::uint32_t>(passes_));
      trace->open(kLoop);
    }
    const Clock::time_point start = Clock::now();
    for (const Resident& resident : leaving) {
      if (trace != nullptr) trace->open(kEvict);
      const bool removed = service_.evictTenant(resident.name);
      if (trace != nullptr) trace->close();
      if (!removed) report.fail("eviction of " + resident.name + " failed");
    }
    const std::vector<Submission> submitted = submitCohort(report, trace);
    if (trace != nullptr) trace->open(kPass);
    const Clock::time_point passStart = Clock::now();
    (void)service_.runPass();
    const Clock::time_point passEnd = Clock::now();
    if (trace != nullptr) trace->close();
    ++passes_;
    timing.passS = std::chrono::duration<double>(passEnd - passStart).count();
    timing.wallS = std::chrono::duration<double>(passEnd - start).count();

    for (const Submission& submission : submitted) {
      timing.submitUs.push_back(submission.durationUs);
      if (!submission.accepted) continue;
      if (trace != nullptr) trace->open(kQuery);
      const auto status = service_.query(submission.tenant);
      if (trace != nullptr) trace->close();
      if (!status.has_value() || status->decisions < 1) {
        report.fail(submission.tenant + " has no decision after its first pass");
        continue;
      }
      timing.firstDecisionMs.push_back(
          std::chrono::duration<double, std::milli>(passEnd - submission.start).count());
    }
    std::tie(timing.simSeconds, timing.advanced) = refreshSimTimes(trace);
    if (trace != nullptr) trace->close();
    const std::uint64_t trained = service_.stats().trainings - trainingsBefore;
    for (std::uint64_t t = 0; t < trained; ++t) report.fail("timed-phase cache miss");
    return timing;
  }

  /// Replays sampled evicted tenants alone on a single-lane service; each
  /// trace hash must equal the one the interleaved fleet produced.
  void checkStandalone(Report& report, std::size_t samples) const {
    if (evicted_.empty()) return;
    serve::FleetServiceConfig config = configOf(seed_);
    config.jobs = 1;
    for (std::size_t s = 0; s < samples; ++s) {
      const Evicted& pick =
          evicted_.at(deriveSeed(seed_, Stream::kSample, s) % evicted_.size());
      serve::FleetService alone(config);
      const serve::AdmitRequest request = requestOf(pick.index);
      if (!alone.submit(request).accepted) {
        report.fail("standalone replay of " + request.tenant + " was rejected");
        continue;
      }
      for (std::size_t p = 0; p < pick.passes; ++p) (void)alone.runPass();
      const auto status = alone.query(request.tenant);
      if (!status.has_value() || status->traceHash != pick.traceHash) {
        report.fail(request.tenant + " differs from its standalone replay");
      }
    }
  }

  [[nodiscard]] serve::FleetService& service() noexcept { return service_; }

 private:
  struct Resident {
    std::size_t index;
    std::string name;
    std::size_t admittedPass;
  };
  struct Evicted {
    std::size_t index;
    std::uint64_t traceHash;
    std::size_t passes;
  };

  struct Submission {
    std::string tenant;
    Clock::time_point start;
    double durationUs;
    bool accepted;
  };

  std::vector<Submission> submitCohort(Report& report, SpanTrace* trace) {
    std::vector<Submission> submissions;
    for (std::size_t k = 0; k < kCohort; ++k) {
      const serve::AdmitRequest request = requestOf(next_++);
      report.attempt();
      if (trace != nullptr) trace->open(kSubmit);
      const Clock::time_point start = Clock::now();
      const serve::AdmitOutcome outcome = service_.submit(request);
      submissions.push_back(
          {request.tenant, start,
           std::chrono::duration<double, std::micro>(Clock::now() - start).count(),
           outcome.accepted});
      if (trace != nullptr) trace->close();
      if (!outcome.accepted) {
        report.fail("submit of " + request.tenant + " rejected: " + outcome.reason);
        continue;
      }
      population_.push_back({next_ - 1, request.tenant, passes_});
    }
    return submissions;
  }

  std::pair<double, std::size_t> refreshSimTimes(SpanTrace* trace = nullptr) {
    double advancedSim = 0.0;
    std::size_t advanced = 0;
    for (const Resident& resident : population_) {
      if (trace != nullptr) trace->open(kQuery);
      const auto status = service_.query(resident.name);
      if (trace != nullptr) trace->close();
      double& last = lastSimTime_[resident.name];
      if (status->simTime > last) {
        advancedSim += status->simTime - last;
        ++advanced;
      }
      last = status->simTime;
    }
    return {advancedSim, advanced};
  }

  std::uint64_t seed_;
  serve::FleetService service_;
  std::deque<Resident> population_;
  std::vector<Evicted> evicted_;
  std::map<std::string, double> lastSimTime_;
  std::size_t next_ = 0;
  std::size_t passes_ = 0;
};

void runFleet(const Options& options, Report& report) {
  constexpr int kSetups = 3;
  std::vector<double> setupS;
  std::vector<double> trainS;
  std::unique_ptr<FleetChurn> fleet;
  std::uint64_t firstDigest = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    fleet.reset();
    const Clock::time_point start = Clock::now();
    fleet = std::make_unique<FleetChurn>(options.seed);
    fleet->fill(report);
    setupS.push_back(secondsSince(start));
    trainS.push_back(fleet->service().stats().trainMsTotal / 1e3);
    const std::uint64_t digest = fleet->populationDigest();
    if (rep > 0 && digest != firstDigest) report.fail("a repeat of the fleet set-up differs");
    firstDigest = digest;
  }

  using Passes = std::vector<FleetChurn::PassTiming>;
  const auto samplesOf = [](const Passes& passes) {
    std::vector<RateSample> samples;
    for (const auto& t : passes) samples.push_back({t.simSeconds / t.wallS, t.refS});
    return samples;
  };
  const serve::FleetStats before = fleet->service().stats();
  Passes detached;
  Passes attached;
  Passes traced;
  SpanTrace trace(1U << 16U);
  repeatFor(options.seconds, minRateSamples(), [&](std::size_t) {
    detached.push_back(fleet->pass(report, nullptr));
    if (!options.trace) return;
    // As for single simulations, the three kinds of pass alternate.
    {
      obs::MetricsRegistry metrics;
      obs::TraceCollector collector;
      obs::Session session{&metrics, nullptr, &collector};
      const obs::ScopedSession guard(session);
      attached.push_back(fleet->pass(report, nullptr));
    }
    traced.push_back(fleet->pass(report, &trace));
  });
  const serve::FleetStats after = fleet->service().stats();

  if (!options.trace) {
    std::vector<double> firstDecision;
    for (const auto& t : detached) {
      firstDecision.insert(firstDecision.end(), t.firstDecisionMs.begin(),
                           t.firstDecisionMs.end());
    }
    addRates(report, samplesOf(detached));
    report.add("setup_s", median(setupS), "s");
    report.add("first_decision_ms_p50", median(firstDecision), "ms");
    if (const auto p95 = tailPercentile(firstDecision, 0.95)) {
      report.add("first_decision_ms_p95", *p95, "ms");
    } else {
      report.fail("too few admissions for a p95 (" + std::to_string(firstDecision.size()) +
                  " < " + std::to_string(minSamplesFor(0.95)) + ")");
    }
    report.add("first_decision_samples", static_cast<double>(firstDecision.size()), "count");
  } else {
    const double tickS = platform::MachineConfig{}.tick;
    std::vector<double> submitUs;
    std::vector<double> passMs;
    std::vector<double> sliceUs;
    std::vector<double> laneNs;
    for (const auto& t : detached) {
      submitUs.insert(submitUs.end(), t.submitUs.begin(), t.submitUs.end());
      passMs.push_back(t.passS * 1e3);
      const double lanePassS = t.passS * static_cast<double>(kLanes);
      sliceUs.push_back(lanePassS * 1e6 / static_cast<double>(t.advanced));
      laneNs.push_back(lanePassS * 1e9 / (t.simSeconds / tickS));
    }
    const double rate = medianPerRef(samplesOf(detached));
    double tracedTicks = 0.0;
    for (const auto& t : traced) tracedTicks += std::round(t.simSeconds / tickS);
    const double admissions = static_cast<double>(after.admitted - before.admitted);
    report.add("serve.setup_train_s", median(trainS), "s");
    report.add("serve.submit_us", median(submitUs), "us");
    report.add("serve.pass_ms", median(passMs), "ms");
    report.add("serve.tenant_slice_us", median(sliceUs), "us");
    report.add("exec.lane_ns_per_tenant_tick", median(laneNs), "ns");
    report.add("serve.cache_hit_ratio",
               static_cast<double>(after.cache.hits - before.cache.hits) / admissions, "ratio");
    report.add("serve.cache_admissions", admissions, "count");
    report.add("serve.trainings", static_cast<double>(after.trainings), "count");
    report.add("workload.ticks", tracedTicks, "count");
    report.add("loop.unattributed_pct", unattributedPct(layerTimes(trace.spans())), "%");
    report.add("trace.overhead_pct", overheadPct(rate, medianPerRef(samplesOf(traced))), "%");
    report.add("obs.attached_overhead_pct",
               overheadPct(rate, medianPerRef(samplesOf(attached))), "%");
    report.add("passes", static_cast<double>(traced.size()), "count");
    writeSpans(options, trace);
  }
  fleet->checkStandalone(report, 3);
}

// ---------------------------------------------------------------------------

/// Metrics the last output line carries, by mode (see BENCHMARK.json).
const std::vector<std::string> kEndToEnd = {"sim_s_per_ref", "setup_s", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {"workload.ticks", "loop.unattributed_pct",
                                            "trace.overhead_pct", "obs.attached_overhead_pct"};

/// Peak resident set of this process image. getrusage's ru_maxrss would
/// also count the launcher's memory from before exec (Linux keeps that
/// high-water mark across execve), so read the current image's VmHWM.
[[nodiscard]] double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void writeMetrics(obs::JsonWriter& json, const std::vector<Report::Metric>& metrics) {
  json.key("metrics").beginObject();
  for (const Report::Metric& m : metrics) {
    json.key(m.name).beginObject().key("value").value(m.value).key("unit").value(m.unit);
    json.endObject();
  }
  json.endObject();
}

void printReport(const Options& options, const Report& report) {
  // The summary carries the metrics BENCHMARK.json declares for this mode.
  std::vector<Report::Metric> summary;
  for (const std::string& name : options.trace ? kPerLayer : kEndToEnd) {
    const auto it = std::find_if(report.metrics().begin(), report.metrics().end(),
                                 [&](const Report::Metric& m) { return m.name == name; });
    if (it == report.metrics().end()) throw std::logic_error("metric not measured: " + name);
    summary.push_back(*it);
  }

  const obs::BuildFingerprint& fp = obs::currentFingerprint();
  std::cout << "workload " << options.workload << ", seed " << options.seed << ", "
            << options.seconds << " s" << (options.trace ? ", traced" : "") << "\n"
            << "fingerprint: " << fp.cpuModel << ", " << fp.coreCount << " cores, "
            << fp.compiler << ", " << fp.buildType << "\n";
  std::cout.precision(12);
  for (const Report::Metric& m : report.metrics()) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "operations: " << report.attempted() << " attempted, " << report.failed()
            << " failed\n";

  obs::JsonWriter full(std::cout);
  full.beginObject().key("workload").value(options.workload);
  full.key("seed").value(options.seed).key("trace").value(options.trace);
  full.key("fingerprint");
  obs::writeFingerprint(full, fp);
  writeMetrics(full, report.metrics());
  full.endObject();
  std::cout << "\n";

  obs::JsonWriter last(std::cout);
  last.beginObject().key("correct").value(report.failed() == 0);
  last.key("attempted").value(report.attempted()).key("failed").value(report.failed());
  writeMetrics(last, summary);
  last.endObject();
  std::cout << std::endl;
}

[[nodiscard]] Options parseOptions(int argc, char** argv) {
  Options options;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.outDir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!haveWorkload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options options = parseOptions(argc, argv);
    const rltherm::obs::BuildFingerprint& fp = rltherm::obs::currentFingerprint();
    if (fp.checked || fp.sanitizers != "none" || fp.buildType != "optimized") {
      std::cerr << "perfbench: refusing to time a " << fp.buildType << " build (checked="
                << fp.checked << ", sanitizers=" << fp.sanitizers << ")\n";
      return 2;
    }
    Report report;
    if (options.workload == "lumped_inter") {
      runLumped(options, report);
    } else if (options.workload == "grid64_ondemand") {
      runGrid64(options, report);
    } else if (options.workload == "fleet_churn") {
      runFleet(options, report);
    } else {
      throw std::invalid_argument("unknown workload " + options.workload);
    }
    report.add("peak_rss_mb", peakRssMb(), "MB");
    printReport(options, report);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
