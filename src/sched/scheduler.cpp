#include "sched/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace rltherm::sched {

Scheduler::Scheduler(SchedulerConfig config) : config_(config) {
  expects(config.coreCount >= 1 && config.coreCount <= kMaxCores,
          "Scheduler supports 1..32 cores");
  expects(config.balanceInterval > 0.0, "Balance interval must be > 0");
  expects(config.migrationPenalty >= 0.0, "Migration penalty must be >= 0");
  expects(config.migrationSpeedFactor > 0.0 && config.migrationSpeedFactor <= 1.0,
          "Migration speed factor must be in (0, 1]");
  dispatch_.running.assign(config.coreCount, std::nullopt);
  dispatch_.waiting.assign(config.coreCount, 0);
  runners_.assign(config.coreCount, nullptr);
}

void Scheduler::addThread(ThreadId id, AffinityMask affinity) {
  expects(!threads_.contains(id), "Scheduler::addThread: duplicate thread id");
  expects(!affinity.empty(), "Scheduler::addThread: empty affinity mask");
  for (const CoreId c : affinity.cores()) {
    expects(static_cast<std::size_t>(c) < config_.coreCount,
            "Affinity mask references a core beyond coreCount");
  }
  ThreadInfo t;
  t.id = id;
  t.affinity = affinity;
  t.state = ThreadState::Runnable;
  if (anyOnlineAllowed(affinity)) {
    t.core = leastLoadedAllowed(affinity);
  } else {
    // Every allowed core is offline: place on the least-loaded live core and
    // keep the requested mask (honoured again if the cores come back).
    t.core = leastLoadedAllowed(AffinityMask::all(config_.coreCount));
    ++affinityBreaks_;
  }
  // Start at the max vruntime of its queue so it does not starve incumbents.
  double maxV = 0.0;
  for (const auto& [otherId, other] : threads_) {
    if (other.core == t.core) maxV = std::max(maxV, other.vruntime);
  }
  t.vruntime = maxV;
  threads_.emplace(id, t);
  rebuildOrder();
}

void Scheduler::removeThread(ThreadId id) {
  const auto it = threads_.find(id);
  expects(it != threads_.end(), "Scheduler::removeThread: unknown thread id");
  std::replace(runners_.begin(), runners_.end(), &it->second,
               static_cast<ThreadInfo*>(nullptr));
  threads_.erase(it);
  rebuildOrder();
}

void Scheduler::clear() {
  threads_.clear();
  order_.clear();
  std::fill(runners_.begin(), runners_.end(), nullptr);
}

void Scheduler::rebuildOrder() {
  order_.clear();
  for (auto& [id, t] : threads_) order_.push_back(&t);
}

void Scheduler::setAffinity(ThreadId id, AffinityMask affinity) {
  expects(!affinity.empty(), "Scheduler::setAffinity: empty affinity mask");
  ThreadInfo& t = mutableThread(id);
  for (const CoreId c : affinity.cores()) {
    expects(static_cast<std::size_t>(c) < config_.coreCount,
            "Affinity mask references a core beyond coreCount");
  }
  t.affinity = affinity;
  if (!affinity.allows(t.core)) {
    if (anyOnlineAllowed(affinity)) {
      migrate(t, leastLoadedAllowed(affinity));
    } else {
      // The new mask names only offline cores; leave the thread running where
      // it is (an affinity violation Linux also tolerates across hotplug).
      ++affinityBreaks_;
    }
  }
}

void Scheduler::setWeight(ThreadId id, double weight) {
  expects(weight > 0.0, "Scheduler::setWeight: weight must be > 0");
  mutableThread(id).weight = weight;
}

void Scheduler::block(ThreadId id) {
  ThreadInfo& t = mutableThread(id);
  expects(t.state != ThreadState::Finished, "Cannot block a finished thread");
  t.state = ThreadState::Blocked;
}

void Scheduler::wake(ThreadId id) {
  ThreadInfo& t = mutableThread(id);
  expects(t.state != ThreadState::Finished, "Cannot wake a finished thread");
  if (t.state == ThreadState::Blocked) t.state = ThreadState::Runnable;
}

void Scheduler::finish(ThreadId id) { mutableThread(id).state = ThreadState::Finished; }

std::size_t Scheduler::onlineCount() const noexcept {
  if (online_.empty()) return config_.coreCount;
  std::size_t count = 0;
  for (const char flag : online_) count += flag != 0 ? 1 : 0;
  return count;
}

void Scheduler::setCoreOnline(CoreId core, bool online) {
  expects(static_cast<std::size_t>(core) < config_.coreCount,
          "Scheduler::setCoreOnline: core beyond coreCount");
  if (coreOnline(core) == online) return;
  if (online_.empty()) online_.assign(config_.coreCount, 1);
  if (!online) {
    expects(onlineCount() > 1,
            "Scheduler::setCoreOnline: cannot take the last online core offline");
  }
  online_[static_cast<std::size_t>(core)] = online ? 1 : 0;
  if (online) return;  // the balancer pulls work onto a revived core

  // Evict every non-finished thread stranded on the dead core. Iterate ids in
  // sorted order so eviction placement is independent of hash-map layout.
  std::vector<ThreadId> stranded;
  for (const auto& [id, t] : threads_) {
    if (t.core == core && t.state != ThreadState::Finished) stranded.push_back(id);
  }
  std::sort(stranded.begin(), stranded.end());
  for (const ThreadId id : stranded) {
    ThreadInfo& t = threads_.at(id);
    bool hasOnlineChoice = false;
    for (const CoreId c : t.affinity.cores()) {
      if (static_cast<std::size_t>(c) < config_.coreCount && coreOnline(c)) {
        hasOnlineChoice = true;
        break;
      }
    }
    if (!hasOnlineChoice) {
      // Affinity mask allows no live core: break it to all online cores.
      std::vector<CoreId> live;
      for (std::size_t c = 0; c < config_.coreCount; ++c) {
        if (coreOnline(static_cast<CoreId>(c))) live.push_back(static_cast<CoreId>(c));
      }
      t.affinity = AffinityMask::of(live);
      ++affinityBreaks_;
    }
    migrate(t, leastLoadedAllowed(t.affinity));
  }
}

const Dispatch& Scheduler::schedule(Seconds dt) {
  expects(dt > 0.0, "Scheduler::schedule: dt must be > 0");

  sinceBalance_ += dt;
  if (sinceBalance_ >= config_.balanceInterval) {
    balanceNow();
    sinceBalance_ = 0.0;
  }

  // Only last tick's runners can be Running: put them back in their queues
  // (one blocked or finished since keeps its new state).
  for (std::size_t core = 0; core < runners_.size(); ++core) {
    ThreadInfo*& t = runners_[core];
    if (t != nullptr && t->state == ThreadState::Running) t->state = ThreadState::Runnable;
    t = nullptr;
    dispatch_.waiting[core] = 0;
  }

  // One pass in dispatch order: tick down migration cooldowns that are still
  // running (one at zero stays there) and pick, per core, the runnable
  // thread with the smallest vruntime (the first one met wins a tie).
  for (ThreadInfo* t : order_) {
    if (t->migrationCooldown > 0.0) {
      t->migrationCooldown = std::max(0.0, t->migrationCooldown - dt);
    }
    if (t->state != ThreadState::Runnable) continue;
    const auto core = static_cast<std::size_t>(t->core);
    ThreadInfo*& incumbent = runners_[core];
    if (incumbent == nullptr || incumbent->vruntime > t->vruntime) {
      if (incumbent != nullptr) ++dispatch_.waiting[core];
      incumbent = t;
    } else {
      ++dispatch_.waiting[core];
    }
  }

  // Charge the chosen threads.
  for (std::size_t core = 0; core < config_.coreCount; ++core) {
    ThreadInfo* t = runners_[core];
    dispatch_.running[core] = t != nullptr ? std::optional<ThreadId>(t->id) : std::nullopt;
    if (t == nullptr) continue;
    t->state = ThreadState::Running;
    t->vruntime += dt / t->weight;  // heavier threads accrue vruntime slower
    t->cpuTime += dt;
  }
  return dispatch_;
}

double Scheduler::speedFactor(ThreadId id) const { return speedOf(thread(id)); }

const ThreadInfo& Scheduler::thread(ThreadId id) const {
  const auto it = threads_.find(id);
  expects(it != threads_.end(), "Scheduler: unknown thread id");
  return it->second;
}

std::vector<ThreadId> Scheduler::threadsOnCore(CoreId core) const {
  std::vector<ThreadId> out;
  for (const auto& [id, t] : threads_) {
    if (t.core == core && t.state != ThreadState::Finished) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Scheduler::balanceNow() {
  // Pull-style balancing: repeatedly move one runnable thread from the most
  // loaded to the least loaded core if the imbalance exceeds one thread and
  // the move is allowed by the thread's affinity mask.
  for (std::size_t iteration = 0; iteration < threads_.size(); ++iteration) {
    CoreId busiest = 0;
    CoreId idlest = 0;
    double maxLoad = 0.0;
    double minLoad = std::numeric_limits<double>::max();
    const CoreLoads loads = runnableLoads();
    for (std::size_t c = 0; c < config_.coreCount; ++c) {
      if (!coreOnline(static_cast<CoreId>(c))) continue;
      const double load = loads[c];
      if (load > maxLoad) {
        maxLoad = load;
        busiest = static_cast<CoreId>(c);
      }
      if (load < minLoad) {
        minLoad = load;
        idlest = static_cast<CoreId>(c);
      }
    }
    if (maxLoad <= minLoad + 1.0) return;

    // Move the migratable thread with the largest vruntime (it has had the
    // most service, so moving it is cheapest in fairness terms).
    ThreadInfo* candidate = nullptr;
    for (ThreadInfo* t : order_) {
      if (t->core != busiest) continue;
      if (t->state != ThreadState::Runnable && t->state != ThreadState::Running) continue;
      if (!t->affinity.allows(idlest)) continue;
      if (candidate == nullptr || t->vruntime > candidate->vruntime) candidate = t;
    }
    if (candidate == nullptr) return;
    migrate(*candidate, idlest);
  }
}

ThreadInfo& Scheduler::mutableThread(ThreadId id) {
  const auto it = threads_.find(id);
  expects(it != threads_.end(), "Scheduler: unknown thread id");
  return it->second;
}

Scheduler::CoreLoads Scheduler::runnableLoads() const {
  CoreLoads loads{};
  for (const ThreadInfo* t : order_) {
    if (t->state == ThreadState::Runnable || t->state == ThreadState::Running) {
      loads[static_cast<std::size_t>(t->core)] += t->weight;
    }
  }
  return loads;
}

bool Scheduler::anyOnlineAllowed(const AffinityMask& mask) const {
  for (const CoreId c : mask.cores()) {
    if (static_cast<std::size_t>(c) < config_.coreCount && coreOnline(c)) return true;
  }
  return false;
}

CoreId Scheduler::leastLoadedAllowed(const AffinityMask& mask) const {
  CoreId best = kInvalidCore;
  double bestLoad = std::numeric_limits<double>::max();
  const CoreLoads loads = runnableLoads();
  for (const CoreId c : mask.cores()) {
    if (static_cast<std::size_t>(c) >= config_.coreCount) continue;
    if (!coreOnline(c)) continue;
    const double load = loads[static_cast<std::size_t>(c)];
    if (load < bestLoad) {
      bestLoad = load;
      best = c;
    }
  }
  ensures(best != kInvalidCore, "No allowed core found for affinity mask");
  return best;
}

void Scheduler::migrate(ThreadInfo& t, CoreId target) {
  if (t.core == target) return;
  t.core = target;
  ++t.migrations;
  ++totalMigrations_;
  t.migrationCooldown = config_.migrationPenalty;
  // Align vruntime with the destination queue so the thread neither starves
  // nor monopolizes its new core.
  double maxV = 0.0;
  for (const auto& [otherId, other] : threads_) {
    if (other.core == target && other.id != t.id) maxV = std::max(maxV, other.vruntime);
  }
  t.vruntime = std::max(t.vruntime, maxV);
}

}  // namespace rltherm::sched
