#include "core/simulation.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <type_traits>

#include "core/manager_checkpoint.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "resil/replicated_driver.hpp"
#include "workload/driver.hpp"
#include "workload/multi_app.hpp"

namespace rltherm::core {

template <typename DriverT>
workload::WorkloadControl& Simulation<DriverT>::attachFaults() {
  if (config_.faults.empty()) return driver_;
  injector_.emplace(config_.faults);
  injector_->attach(machine_);
  return gatedControl_.emplace(driver_, *injector_);
}

template <typename DriverT>
void Simulation<DriverT>::start(bool trace, std::string scenarioName) {
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

template <typename DriverT>
void Simulation<DriverT>::advanceTo(Seconds limit) {
  while (running_ && machine_.now() < limit) {
    running_ = driver_.tick();
    if (injector_.has_value()) injector_->advanceTo(machine_.now());

    if (driver_.appJustSwitched() && policy_.wantsAppSwitchSignal()) {
      policy_.onAppSwitch(ctx_);
    }

    const Seconds now = machine_.now();
    if (nextSample_ > 0.0 && now + 1e-9 >= nextSample_) {
      std::vector<Celsius> readings = machine_.readSensors();
      bool deliver = true;
      if (injector_.has_value()) {
        auto filtered = injector_->filterSample(now, std::move(readings));
        deliver = filtered.has_value();
        if (deliver) readings = std::move(*filtered);
      }
      if (deliver) {
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
      const std::vector<Celsius> truth = machine_.trueCoreTemperatures();
      for (std::size_t c = 0; c < truth.size(); ++c) {
        result_.coreTraces[c].push_back(truth[c]);
      }
      nextTrace_ += config_.traceInterval;
    }
  }
}

template <typename DriverT>
RunResult Simulation<DriverT>::finish() {
  RunResult& result = result_;
  result.duration = machine_.now();
  if constexpr (std::is_same_v<DriverT, workload::MultiAppDriver>) {
    // Server mode never completes: the fixed window is the intended stop,
    // and each slot reports the iterations it accumulated over it.
    result.timedOut = false;
    for (std::size_t i = 0; i < driver_.appCount(); ++i) {
      result.completions.push_back(workload::AppCompletion{
          .name = driver_.spec(i).name,
          .startTime = 0.0,
          .endTime = result.duration,
          .iterations = driver_.totalIterations(i),
      });
    }
  } else {
    result.timedOut = running_;  // stopped on time, not completion
    result.completions = driver_.completions();
  }
  if (injector_.has_value()) result.faultStats = injector_->stats();
  if constexpr (std::is_same_v<DriverT, resil::ReplicatedDriver>) {
    result.deliveredIterations = driver_.deliveredIterations();
    result.taintedIterations = driver_.taintedIterations();
    result.finalDeliveredRatio = driver_.deliveredWorkRatio();
  }

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

template class Simulation<workload::WorkloadDriver>;
template class Simulation<resil::ReplicatedDriver>;
template class Simulation<workload::MultiAppDriver>;

}  // namespace rltherm::core
