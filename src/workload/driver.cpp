#include "workload/driver.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace rltherm::workload {

namespace {

/// Thread ids: app index a, replica r, thread t maps to
/// (a+1)*1000 + r*100 + t + 1. The degree is at most 3 and thread counts at
/// most 100, so the strides never collide, and (id - 1001) / 100 numbers the
/// (app, replica) blocks: 10 per app, of which the first 3 can be live.
constexpr std::size_t kBlocksPerApp = 10;

[[nodiscard]] ThreadId firstThreadId(std::size_t app, std::size_t replica) {
  return static_cast<ThreadId>((app + 1) * 1000 + replica * 100 + 1);
}

[[nodiscard]] std::size_t blockOf(std::size_t app, std::size_t replica) noexcept {
  return app * kBlocksPerApp + replica;
}

[[nodiscard]] std::size_t blockOf(ThreadId id) noexcept {
  return static_cast<std::size_t>(id - 1001) / 100;
}

void bumpCounter(const char* name, std::uint64_t n = 1) {
  if (n == 0) return;
  if (obs::MetricsRegistry* metrics = obs::metrics()) metrics->counter(name).add(n);
}

void setGauge(const char* name, double value) {
  if (obs::MetricsRegistry* metrics = obs::metrics()) metrics->gauge(name).set(value);
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

WorkloadDriver::WorkloadDriver(platform::Machine& machine, Scenario scenario,
                               std::optional<ReplicationPlan> plan)
    : WorkloadDriver(machine, std::move(scenario.apps), /*concurrent=*/false,
                     /*repeat=*/false, plan) {}

WorkloadDriver::WorkloadDriver(platform::Machine& machine, std::vector<AppSpec> apps,
                               bool restartFinished)
    : WorkloadDriver(machine, std::move(apps), /*concurrent=*/true, restartFinished,
                     std::nullopt) {}

WorkloadDriver::WorkloadDriver(platform::Machine& machine, std::vector<AppSpec> apps,
                               bool concurrent, bool repeat,
                               std::optional<ReplicationPlan> plan)
    : machine_(machine), apps_(std::move(apps)), repeat_(repeat), plan_(plan) {
  expects(!apps_.empty(), "WorkloadDriver requires at least one application");
  expects(apps_.size() < 1'000'000, "WorkloadDriver: too many applications");
  for (const AppSpec& spec : apps_) {
    expects(spec.threadCount <= 100, "WorkloadDriver: an app may have at most 100 threads");
  }
  if (plan_) {
    plan_->validate();
    pendingDegree_ = plan_->initialDegree;
    coreWasOnline_.resize(machine_.coreCount());
    for (std::size_t c = 0; c < machine_.coreCount(); ++c) {
      coreWasOnline_[c] = machine_.coreOnline(c) ? 1 : 0;
    }
  }
  slots_.resize(concurrent ? apps_.size() : 1);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    slots_[s].first = slots_[s].next = concurrent ? s : 0;
    slots_[s].end = concurrent ? s + 1 : apps_.size();
  }
  replicaOfId_.resize(apps_.size() * kBlocksPerApp);
  for (std::size_t s = 0; s < slots_.size(); ++s) startInstance(s);
}

bool WorkloadDriver::tick() {
  switched_ = false;
  // Core retirements happen in the injector, BETWEEN our ticks; taint the
  // replicas whose in-flight iteration touched a core that went away.
  if (plan_) detectCoreFailures();

  bool live = false;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (slot.replicas.empty() && slot.next < slot.end) {
      startInstance(s);
      switched_ = true;
      if (obs::events() != nullptr) {
        obs::emit(obs::Event{.name = "workload.app.switch",
                             .simTime = machine_.now(),
                             .fields = {obs::field("to", apps_[slot.current].name)}});
      }
    }
    live = live || !slot.replicas.empty();
  }
  if (!live) {
    // Run complete; tick the machine idle so thermal state keeps evolving
    // if the caller wants a cool-down tail.
    (void)machine_.tick([](ThreadId) { return 0.0; });
    return false;
  }

  for (Slot& slot : slots_) {
    for (Replica& replica : slot.replicas) {
      if (replica.app != nullptr) replica.app->onTick(machine_.now());
    }
  }
  const platform::TickResult result =
      machine_.tick([this](ThreadId id) { return replicaOf(id).app->activity(id); });
  for (const platform::ThreadExecution& exec : result.executed) {
    // A dispatched thread's replica is live (finished ones were torn down
    // last tick); progress credited past the app's end is ignored by its
    // finished threads.
    Replica& replica = replicaOf(exec.thread);
    replica.app->onProgress(exec.thread, exec.progress);
    // The core footprint only feeds taint accounting, which needs a plan.
    if (plan_ && exec.core != kInvalidCore) {
      replica.coresTouched |= std::uint64_t{1} << static_cast<std::size_t>(exec.core);
    }
  }

  const Seconds now = machine_.now();
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (slot.replicas.empty()) continue;
    int finished = 0;
    for (Replica& replica : slot.replicas) {
      account(replica);
      if (replica.app != nullptr && replica.app->finished()) {
        // The replica's result is in; free its cores for the survivors but
        // keep its credited count for the merge.
        replica.app->teardown();
        replica.app.reset();
      }
      if (replica.app == nullptr) ++finished;
    }
    slot.window.record(
        {.time = now,
         .iterations = slot.iterationsBase + static_cast<int>(merged(slot, false))},
        window_);
    if (finished >= quorum(slot)) finishInstance(s);
  }
  if (plan_) {
    delivery_.record({.time = now, .credited = creditedTotal_, .tainted = taintedTotal_},
                     window_);
  }
  return !done();
}

bool WorkloadDriver::done() const {
  if (repeat_) return false;
  return std::all_of(slots_.begin(), slots_.end(), [](const Slot& slot) {
    return slot.replicas.empty() && slot.next >= slot.end;
  });
}

void WorkloadDriver::startInstance(std::size_t s) {
  Slot& slot = slots_[s];
  slot.current = slot.next++;
  if (slot.next == slot.end && repeat_) slot.next = slot.first;
  const AppSpec& spec = apps_[slot.current];
  slot.degree = plan_ ? pendingDegree_ : 1;
  slot.replicas.resize(static_cast<std::size_t>(slot.degree));
  for (std::size_t r = 0; r < slot.replicas.size(); ++r) {
    slot.replicas[r].app = std::make_unique<RunningApp>(spec, machine_.scheduler(),
                                                        firstThreadId(slot.current, r));
    replicaOfId_[blockOf(slot.current, r)] = &slot.replicas[r];
  }
  slot.start = machine_.now();
  slot.window.clear();
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{.name = "workload.app.start",
                         .simTime = slot.start,
                         .fields = {
                             obs::field("app", spec.name),
                             obs::field("family", spec.family),
                             obs::field("threads", static_cast<std::int64_t>(spec.threadCount)),
                             obs::field("constraint", spec.performanceConstraint),
                         }});
  }
  // Replicas take the current placement at once, so the avoid set holds
  // from their first tick, and so does a restarted app, as a manager
  // re-pinning new arrivals would. The next app of a plain sequence starts
  // unpinned until the policy's next decision.
  if (plan_ || repeat_) place(s);
  if (plan_) {
    setGauge("resil.degree.current", static_cast<double>(slot.degree));
    if (obs::events() != nullptr) {
      obs::emit(obs::Event{.name = "resil.group.start",
                           .simTime = slot.start,
                           .fields = {
                               obs::field("app", spec.name),
                               obs::field("degree", static_cast<std::int64_t>(slot.degree)),
                               obs::field("merge", toString(plan_->merge)),
                           }});
    }
  }
}

void WorkloadDriver::finishInstance(std::size_t s) {
  Slot& slot = slots_[s];
  const std::int64_t delivered = merged(slot, /*credited=*/true);
  const AppCompletion& completion = completions_.emplace_back(AppCompletion{
      .name = apps_[slot.current].name,
      .startTime = slot.start,
      .endTime = machine_.now(),
      .iterations = static_cast<int>(delivered),
  });
  ++slot.runs;
  slot.iterationsBase += completion.iterations;
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{
        .name = "workload.app.finish",
        .simTime = completion.endTime,
        .fields = {
            obs::field("app", completion.name),
            obs::field("iterations", static_cast<std::int64_t>(completion.iterations)),
            obs::field("exec_s", completion.executionTime()),
        }});
  }
  if (plan_) {
    bumpCounter("resil.iterations.deliver", static_cast<std::uint64_t>(delivered));
    if (obs::events() != nullptr) {
      obs::emit(obs::Event{.name = "resil.group.finish",
                           .simTime = completion.endTime,
                           .fields = {
                               obs::field("app", completion.name),
                               obs::field("delivered", delivered),
                               obs::field("degree", static_cast<std::int64_t>(slot.degree)),
                               obs::field("exec_s", completion.executionTime()),
                           }});
    }
  }
  for (std::size_t r = 0; r < slot.replicas.size(); ++r) {
    Replica& replica = slot.replicas[r];
    if (replica.app != nullptr) {
      replica.app->teardown();
      replica.app.reset();
    }
    replicaOfId_[blockOf(slot.current, r)] = nullptr;
  }
  slot.replicas.clear();
  lastBlockFirst_ = 0;  // the cached replica may be gone
  slot.window.clear();
}

void WorkloadDriver::detectCoreFailures() {
  for (std::size_t c = 0; c < coreWasOnline_.size(); ++c) {
    const bool online = machine_.coreOnline(c);
    if (online == (coreWasOnline_[c] != 0)) continue;
    coreWasOnline_[c] = online ? 1 : 0;
    if (online) continue;  // recovery taints nothing
    const std::uint64_t bit = std::uint64_t{1} << c;
    for (Slot& slot : slots_) {
      for (std::size_t r = 0; r < slot.replicas.size(); ++r) {
        Replica& replica = slot.replicas[r];
        if (replica.app == nullptr || (replica.coresTouched & bit) == 0) continue;
        if (replica.taintPending) continue;
        replica.taintPending = true;
        if (obs::events() != nullptr) {
          obs::emit(obs::Event{.name = "resil.iteration.taint",
                               .simTime = machine_.now(),
                               .fields = {
                                   obs::field("core", static_cast<std::int64_t>(c)),
                                   obs::field("replica", static_cast<std::int64_t>(r)),
                               }});
        }
      }
    }
  }
}

void WorkloadDriver::account(Replica& replica) {
  if (replica.app == nullptr) return;
  const int iterations = replica.app->iterationsCompleted();
  int completedNow = iterations - replica.lastIterations;
  if (completedNow <= 0) return;
  replica.lastIterations = iterations;
  replica.coresTouched = 0;  // the next iteration starts a fresh footprint
  if (replica.taintPending) {
    // The first iteration to complete after the failure carries the lost
    // work of the dead core; it is never credited.
    replica.taintPending = false;
    ++taintedTotal_;
    --completedNow;
    bumpCounter("resil.iterations.taint");
  }
  if (completedNow > 0) {
    replica.credited += completedNow;
    creditedTotal_ += completedNow;
  }
}

std::int64_t WorkloadDriver::merged(const Slot& slot, bool credited) const {
  // Insertion sort, descending: at most three values, no call, no heap.
  std::array<std::int64_t, 3> values{};
  const std::size_t n = slot.replicas.size();
  for (std::size_t r = 0; r < n; ++r) {
    values[r] = credited ? slot.replicas[r].credited : slot.replicas[r].lastIterations;
    for (std::size_t i = r; i > 0 && values[i - 1] < values[i]; --i) {
      std::swap(values[i - 1], values[i]);
    }
  }
  const auto rank = static_cast<std::size_t>(quorum(slot) - 1);
  return rank < n ? values[rank] : 0;
}

int WorkloadDriver::quorum(const Slot& slot) const noexcept {
  return plan_ ? plan_->quorum(slot.degree) : 1;
}

WorkloadDriver::Replica& WorkloadDriver::replicaOf(ThreadId id) {
  // Consecutive dispatches mostly come from one replica, so the last
  // block's lookup is reused before dividing: this runs for every
  // dispatched thread, twice per tick.
  if (static_cast<std::uint32_t>(id - lastBlockFirst_) >= 100) {
    const std::size_t block = blockOf(id);
    RLTHERM_EXPECT(id > 1000 && block < replicaOfId_.size() && replicaOfId_[block] != nullptr,
                   "thread id of no live replica");
    lastReplica_ = replicaOfId_[block];
    lastBlockFirst_ = static_cast<ThreadId>(block * 100 + 1001);
  }
  return *lastReplica_;
}

double WorkloadDriver::rate(const SampleWindow<Progress>& window) {
  if (window.size() < 2) return 0.0;
  const Progress& oldest = window.front();
  const Progress& newest = window.back();
  if (newest.time <= oldest.time) return 0.0;
  return static_cast<double>(newest.iterations - oldest.iterations) /
         (newest.time - oldest.time);
}

double WorkloadDriver::throughput(std::size_t slot) const { return rate(slotAt(slot).window); }

double WorkloadDriver::performanceRatio() const {
  double worst = 1.0;
  bool any = false;
  for (const Slot& slot : slots_) {
    const double constraint = apps_[slot.current].performanceConstraint;
    if (slot.replicas.empty() || constraint <= 0.0) continue;
    const double tp = rate(slot.window);
    if (tp <= 0.0) continue;  // a cold window is not a real shortfall
    const double ratio = tp / constraint;
    worst = any ? std::min(worst, ratio) : ratio;
    any = true;
  }
  return any ? worst : 1.0;
}

double WorkloadDriver::deliveredWorkRatio() const {
  if (delivery_.size() < 2) return 1.0;
  const std::int64_t credited = delivery_.back().credited - delivery_.front().credited;
  const std::int64_t tainted = delivery_.back().tainted - delivery_.front().tainted;
  const std::int64_t attempted = credited + tainted;
  if (attempted <= 0) return 1.0;
  return static_cast<double>(credited) / static_cast<double>(attempted);
}

std::int64_t WorkloadDriver::deliveredIterations() const {
  if (!plan_) return 0;
  std::int64_t delivered = 0;
  for (const AppCompletion& completion : completions_) delivered += completion.iterations;
  for (const Slot& slot : slots_) delivered += merged(slot, /*credited=*/true);
  return delivered;
}

std::vector<AppCompletion> WorkloadDriver::completions() const {
  if (!repeat_) return completions_;
  std::vector<AppCompletion> totals;
  totals.reserve(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    totals.push_back(AppCompletion{
        .name = apps_[slots_[s].first].name,
        .startTime = 0.0,
        .endTime = machine_.now(),
        .iterations = totalIterations(s),
    });
  }
  return totals;
}

const WorkloadDriver::Slot& WorkloadDriver::slotAt(std::size_t slot) const {
  expects(slot < slots_.size(), "WorkloadDriver: slot index out of range");
  return slots_[slot];
}

const RunningApp* WorkloadDriver::app(std::size_t slot) const {
  const Slot& s = slotAt(slot);
  return s.replicas.empty() ? nullptr : s.replicas.front().app.get();
}

const AppSpec& WorkloadDriver::spec(std::size_t slot) const {
  return apps_[slotAt(slot).current];
}

int WorkloadDriver::runs(std::size_t slot) const { return slotAt(slot).runs; }

int WorkloadDriver::totalIterations(std::size_t slot) const {
  const Slot& s = slotAt(slot);
  return s.iterationsBase + static_cast<int>(merged(s, /*credited=*/false));
}

sched::AffinityMask WorkloadDriver::steerAway(const sched::AffinityMask& mask) const {
  if (avoid_.empty()) return mask;
  const auto keep = [this](const sched::AffinityMask& m) {
    std::vector<CoreId> cores;
    for (CoreId c : m.cores()) {
      if (!avoid_.allows(c)) cores.push_back(c);
    }
    return cores;
  };
  std::vector<CoreId> cores = keep(mask);
  if (cores.empty()) cores = keep(sched::AffinityMask::all(machine_.coreCount()));
  if (cores.empty()) return mask;  // everything is suspect: steering is moot
  return sched::AffinityMask::of(cores);
}

void WorkloadDriver::place(std::size_t s) {
  const Slot& slot = slots_[s];
  const auto fullMask = sched::AffinityMask::all(machine_.coreCount());
  for (std::size_t r = 0; r < slot.replicas.size(); ++r) {
    const RunningApp* app = slot.replicas[r].app.get();
    if (app == nullptr) continue;
    const ThreadId first = firstThreadId(slot.current, r);
    const auto threads = static_cast<std::size_t>(app->spec().threadCount);
    for (std::size_t t = 0; t < threads; ++t) {
      const sched::AffinityMask base =
          pattern_.empty() ? fullMask : pattern_[(t + s + r) % pattern_.size()];
      machine_.scheduler().setAffinity(first + static_cast<ThreadId>(t), steerAway(base));
    }
  }
}

void WorkloadDriver::applyAffinityPattern(std::span<const sched::AffinityMask> pattern) {
  pattern_.assign(pattern.begin(), pattern.end());
  for (std::size_t s = 0; s < slots_.size(); ++s) place(s);
}

void WorkloadDriver::applyReplication(const ReplicationRequest& request) {
  if (!plan_) return;
  const int degree = std::clamp(request.degree, 1, plan_->maxDegree);
  avoid_ = request.avoid;
  if (degree != pendingDegree_) {
    pendingDegree_ = degree;
    bumpCounter("resil.degree.change");
  }
  setGauge("resil.degree.pending", static_cast<double>(pendingDegree_));
  // Steering applies to the running replicas immediately: moving work off
  // a suspect core cannot wait for the next instance.
  for (std::size_t s = 0; s < slots_.size(); ++s) place(s);
}

template <typename Sample>
void WorkloadDriver::SampleWindow<Sample>::record(const Sample& sample, Seconds span) {
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
  const Seconds cutoff = sample.time - span;
  while (count_ > 2 && front().time < cutoff) {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }
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
