#include "core/simulation.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "core/manager_checkpoint.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace rltherm::core {

namespace {

std::string concurrentName(const std::vector<workload::AppSpec>& apps) {
  std::string name = "concurrent";
  for (const workload::AppSpec& app : apps) name += "+" + app.family;
  return name;
}

}  // namespace

Simulation::Simulation(RunnerConfig config, bool trace, ThermalPolicy& policy,
                       workload::Scenario scenario)
    : config_(std::move(config)),
      policy_(policy),
      machine_(config_.machine),
      driver_(machine_, scenario, config_.replication),
      ctx_{machine_, attachFaults()},
      readings_(machine_.coreCount()),
      truth_(machine_.coreCount()) {
  start(trace, std::move(scenario.name));
}

Simulation::Simulation(RunnerConfig config, bool trace, ThermalPolicy& policy,
                       std::vector<workload::AppSpec> apps)
    : config_(std::move(config)),
      policy_(policy),
      machine_(config_.machine),
      driver_(machine_, apps, /*restartFinished=*/true),
      ctx_{machine_, attachFaults()},
      readings_(machine_.coreCount()),
      truth_(machine_.coreCount()) {
  expects(!config_.replication.has_value(),
          "concurrent mode does not support replication; clear RunnerConfig::replication");
  start(trace, concurrentName(apps));
}

workload::WorkloadControl& Simulation::attachFaults() {
  if (config_.faults.empty()) return driver_;
  injector_.emplace(config_.faults);
  injector_->attach(machine_);
  return gatedControl_.emplace(driver_, *injector_);
}

void Simulation::start(bool trace, std::string scenarioName) {
  result_.policyName = policy_.name();
  result_.scenarioName = std::move(scenarioName);
  result_.traceInterval = config_.traceInterval;
  if (trace) {
    result_.coreTraces.assign(machine_.coreCount(), {});
    nextTrace_ = config_.traceInterval;
  }
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{.name = "runner.run.start",
                         .simTime = 0.0,
                         .fields = {
                             obs::field("policy", result_.policyName),
                             obs::field("scenario", result_.scenarioName),
                         }});
  }
  if (!config_.resumeCheckpoint.empty()) {
    resumePolicyFromCheckpoint(policy_, config_.resumeCheckpoint);
  }
  policy_.onStart(ctx_);
  if (policy_.samplingInterval() > 0.0) nextSample_ = policy_.samplingInterval();
}

void Simulation::advanceTo(Seconds limit) {
  while (running_ && machine_.now() < limit) {
    running_ = driver_.tick();
    if (injector_.has_value()) injector_->advanceTo(machine_.now());

    if (driver_.appJustSwitched() && policy_.wantsAppSwitchSignal()) {
      policy_.onAppSwitch(ctx_);
    }

    const Seconds now = machine_.now();
    if (nextSample_ > 0.0 && now + 1e-9 >= nextSample_) {
      machine_.readSensors(readings_);
      std::span<const Celsius> readings = readings_;
      std::optional<std::vector<Celsius>> filtered;
      if (injector_.has_value()) {
        filtered = injector_->filterSample(now, readings_);
        if (filtered.has_value()) readings = *filtered;
      }
      if (!injector_.has_value() || filtered.has_value()) {
        for (const Celsius r : readings) peakReading_ = std::max(peakReading_, r);
        ++samples_;
        policy_.onSample(ctx_, readings);
        if (obs::MetricsRegistry* metrics = obs::metrics()) {
          metrics->counter("runner.samples.deliver").add();
        }
      }
      machine_.perfCounters().recordMonitoringOverhead(
          config_.monitorCacheMissesPerSample, config_.monitorPageFaultsPerSample);
      // Re-read the interval: adaptive-sampling policies change it online.
      nextSample_ += std::max(policy_.samplingInterval(), machine_.tickLength());
    }
    if (now + 1e-9 >= nextTrace_) {
      machine_.trueCoreTemperatures(truth_);
      for (std::size_t c = 0; c < truth_.size(); ++c) {
        result_.coreTraces[c].push_back(truth_[c]);
      }
      nextTrace_ += config_.traceInterval;
    }
  }
}

RunResult Simulation::finish() {
  RunResult& result = result_;
  result.duration = machine_.now();
  // Stopped on time, not completion; a run that never finishes is meant to
  // stop at its limit.
  result.timedOut = running_ && driver_.canFinish();
  result.completions = driver_.completions();
  if (injector_.has_value()) result.faultStats = injector_->stats();
  result.deliveredIterations = driver_.deliveredIterations();
  result.taintedIterations = driver_.taintedIterations();
  result.finalDeliveredRatio = driver_.deliveredWorkRatio();

  // Trim the warm-up/teardown windows, then analyse and account.
  const reliability::ReliabilityAnalyzer analyzer(config_.analyzer);
  const auto skipHead =
      static_cast<std::ptrdiff_t>(config_.analysisWarmup / config_.traceInterval);
  const auto skipTail =
      static_cast<std::ptrdiff_t>(config_.analysisCooldown / config_.traceInterval);
  std::vector<std::vector<Celsius>> analyzed;
  analyzed.reserve(result.coreTraces.size());
  for (const std::vector<Celsius>& trace : result.coreTraces) {
    const bool trim = std::ssize(trace) > (skipHead + skipTail) * 2;
    analyzed.emplace_back(trace.begin() + (trim ? skipHead : 0),
                          trace.end() - (trim ? skipTail : 0));
  }
  result.reliability = analyzer.analyzeChip(analyzed, config_.traceInterval);

  const power::EnergyMeter& meter = machine_.energyMeter();
  result.dynamicEnergy = meter.dynamicEnergy();
  result.staticEnergy = meter.staticEnergy();
  result.averageDynamicPower = meter.averageDynamicPower();
  result.averageTotalPower = meter.averageTotalPower();
  result.counters = machine_.perfCounters().sample();

  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("runner.runs.complete").add();
    metrics->gauge("runner.duration.last").set(result.duration);
    metrics->gauge("runner.energy.dynamic").set(result.dynamicEnergy);
  }
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{
        .name = "runner.run.finish",
        .simTime = result.duration,
        .fields = {
            obs::field("policy", result.policyName),
            obs::field("scenario", result.scenarioName),
            obs::field("duration_s", result.duration),
            obs::field("timed_out", result.timedOut),
            obs::field("completions", static_cast<std::int64_t>(result.completions.size())),
            obs::field("avg_temp_c", static_cast<double>(result.reliability.averageTemp)),
            obs::field("peak_temp_c", static_cast<double>(result.reliability.peakTemp)),
            obs::field("cycling_mttf_y", result.reliability.cyclingMttfYears),
            obs::field("aging_mttf_y", result.reliability.agingMttfYears),
            obs::field("dynamic_energy_j", result.dynamicEnergy),
            obs::field("static_energy_j", result.staticEnergy),
            obs::field("avg_total_power_w", result.averageTotalPower),
        }});
  }
  if (!config_.saveCheckpointAtEnd.empty()) {
    savePolicyCheckpointOf(policy_, config_.saveCheckpointAtEnd);
  }
  return std::move(result);
}

}  // namespace rltherm::core
