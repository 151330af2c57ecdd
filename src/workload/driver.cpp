#include "workload/driver.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "obs/events.hpp"
#include "obs/session.hpp"

namespace rltherm::workload {

namespace {

/// Scenario lifecycle events, recorded only when an event sink is attached.
void emitAppStart(Seconds now, const AppSpec& spec) {
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{.name = "workload.app.start",
                         .simTime = now,
                         .fields = {
                             obs::field("app", spec.name),
                             obs::field("family", spec.family),
                             obs::field("threads", static_cast<std::int64_t>(spec.threadCount)),
                             obs::field("constraint", spec.performanceConstraint),
                         }});
  }
}

void emitAppFinish(const AppCompletion& completion) {
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{.name = "workload.app.finish",
                         .simTime = completion.endTime,
                         .fields = {
                             obs::field("app", completion.name),
                             obs::field("iterations", static_cast<std::int64_t>(completion.iterations)),
                             obs::field("exec_s", completion.executionTime()),
                         }});
  }
}

}  // namespace

Scenario Scenario::of(std::vector<AppSpec> apps) {
  expects(!apps.empty(), "Scenario requires at least one application");
  std::string name;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (i > 0) name += "-";
    name += apps[i].family;
  }
  return Scenario{.name = std::move(name), .apps = std::move(apps)};
}

WorkloadDriver::WorkloadDriver(platform::Machine& machine, Scenario scenario)
    : machine_(machine), scenario_(std::move(scenario)) {
  expects(!scenario_.apps.empty(), "WorkloadDriver requires a non-empty scenario");
  startNextApp();
  firstAppStarted_ = true;
  switchedFlag_ = false;  // the initial app start is not an inter-app switch
}

bool WorkloadDriver::tick() {
  switchedFlag_ = false;
  if (current_ == nullptr) {
    if (nextApp_ >= scenario_.apps.size()) {
      // Scenario complete; tick the machine idle so thermal state keeps
      // evolving if the caller wants a cool-down tail.
      (void)machine_.tick([](ThreadId) { return 0.0; });
      return false;
    }
    startNextApp();
    switchedFlag_ = true;
    if (obs::events() != nullptr) {
      obs::emit(obs::Event{.name = "workload.app.switch",
                           .simTime = machine_.now(),
                           .fields = {obs::field("to", current_->spec().name)}});
    }
  }

  RunningApp& app = *current_;
  app.onTick(machine_.now());
  const platform::TickResult result =
      machine_.tick([&app](ThreadId id) { return app.activity(id); });
  for (const platform::ThreadExecution& exec : result.executed) {
    app.onProgress(exec.thread, exec.progress);
    if (app.finished()) break;
  }
  recordIterationSamples();

  if (app.finished()) {
    completions_.push_back(AppCompletion{
        .name = app.spec().name,
        .startTime = currentStart_,
        .endTime = machine_.now(),
        .iterations = app.iterationsCompleted(),
    });
    emitAppFinish(completions_.back());
    app.teardown();
    current_.reset();
    throughputSamples_.clear();
    // The next app starts on the next tick; callers see appJustSwitched()
    // then.
  }
  return !done();
}

double WorkloadDriver::currentThroughput() const {
  if (throughputSamples_.size() < 2) return 0.0;
  const auto& [t0, n0] = throughputSamples_.front();
  const auto& [t1, n1] = throughputSamples_.back();
  if (t1 <= t0) return 0.0;
  return static_cast<double>(n1 - n0) / (t1 - t0);
}

double WorkloadDriver::performanceConstraint() const {
  return current_ ? current_->spec().performanceConstraint : 0.0;
}

double WorkloadDriver::performanceRatio() const {
  const double constraint = performanceConstraint();
  if (constraint <= 0.0) return 1.0;
  const double throughput = currentThroughput();
  // A cold throughput window (app just started) is not a real shortfall.
  if (throughput <= 0.0) return 1.0;
  return throughput / constraint;
}

void WorkloadDriver::applyAffinityPattern(std::span<const sched::AffinityMask> pattern) {
  if (current_ == nullptr) return;
  const std::vector<ThreadId> ids = current_->threadIds();
  const auto fullMask = sched::AffinityMask::all(machine_.coreCount());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const sched::AffinityMask mask =
        pattern.empty() ? fullMask : pattern[i % pattern.size()];
    machine_.scheduler().setAffinity(ids[i], mask);
  }
}

void WorkloadDriver::startNextApp() {
  ensures(nextApp_ < scenario_.apps.size(), "startNextApp called with no apps left");
  const AppSpec& spec = scenario_.apps[nextApp_];
  // Thread ids are globally unique across the scenario: app index * 1000.
  const auto firstId = static_cast<ThreadId>(nextApp_ * 1000 + 1);
  current_ = std::make_unique<RunningApp>(spec, machine_.scheduler(), firstId);
  currentStart_ = machine_.now();
  ++nextApp_;
  throughputSamples_.clear();
  emitAppStart(currentStart_, spec);
}

void WorkloadDriver::recordIterationSamples() {
  if (current_ == nullptr) return;
  throughputSamples_.push_back({machine_.now(), current_->iterationsCompleted()});
  const Seconds cutoff = machine_.now() - throughputWindow_;
  while (throughputSamples_.size() > 2 && throughputSamples_.front().first < cutoff) {
    throughputSamples_.pop_front();
  }
}

void WorkloadDriver::SampleRing::push_back(const Sample& sample) {
  if (count_ == slots_.size()) {
    std::vector<Sample> grown(std::max<std::size_t>(64, 2 * slots_.size()));
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_.swap(grown);
    head_ = 0;
  }
  slots_[(head_ + count_) & (slots_.size() - 1)] = sample;
  ++count_;
}

std::vector<AffinityPattern> standardPatterns(std::size_t coreCount) {
  expects(coreCount >= 1, "standardPatterns requires at least one core");
  using sched::AffinityMask;
  const auto mask = [&](CoreId c) {
    return AffinityMask::single(static_cast<CoreId>(static_cast<std::size_t>(c) % coreCount));
  };

  std::vector<AffinityPattern> patterns;
  patterns.push_back(AffinityPattern{.name = "free", .masks = {}});
  patterns.push_back(AffinityPattern{
      .name = "paired",
      .masks = {mask(0), mask(0), mask(1), mask(1), mask(2), mask(3)}});
  patterns.push_back(AffinityPattern{
      .name = "spread",
      .masks = {mask(0), mask(1), mask(2), mask(3), mask(0), mask(1)}});
  patterns.push_back(AffinityPattern{
      .name = "packed2",
      .masks = {mask(0), mask(1), mask(0), mask(1), mask(0), mask(1)}});
  patterns.push_back(AffinityPattern{
      .name = "corner3",
      .masks = {mask(0), mask(1), mask(2), mask(0), mask(1), mask(2)}});
  return patterns;
}

}  // namespace rltherm::workload
