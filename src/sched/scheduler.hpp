// A compact model of the Linux scheduler: per-core run queues, fair
// (vruntime-based) thread selection, periodic load balancing, and affinity
// masks that override placement — the exact mechanism set the paper's
// motivational example (Section 3) manipulates.
//
// The model deliberately reproduces the behaviours the paper attributes to
// Linux: (1) under the default policy, threads are migrated to balance run
// queue lengths, so concurrently-active phases of different threads end up
// overlapped on the same cores in load-dependent ways; (2) setting a thread's
// affinity mask forces an immediate migration onto an allowed core and pins
// all future balancing to the mask; (3) migrations carry a transient
// performance penalty (cold caches), surfaced as a per-thread speed factor
// and extra synthetic cache misses.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sched/thread.hpp"

namespace rltherm::sched {

struct SchedulerConfig {
  std::size_t coreCount = 4;
  Seconds balanceInterval = 0.2;       ///< how often the balancer runs
  Seconds migrationPenalty = 0.05;     ///< cooldown during which a migrated thread runs slower
  double migrationSpeedFactor = 0.6;   ///< speed multiplier while cooling down
};

/// What ran on each core during the last schedule() call. The scheduler owns
/// it and refills it in place on every schedule(), so a tick allocates
/// nothing.
struct Dispatch {
  /// One entry per core: the thread chosen for this tick, if any.
  std::vector<std::optional<ThreadId>> running;
  /// Number of runnable-but-not-run threads per core (queue pressure).
  std::vector<std::size_t> waiting;
};

/// Dispatch order: each tick, every core runs its runnable thread with the
/// smallest vruntime. Equal-vruntime ties (common: a new thread starts at its
/// queue's max vruntime) go to the thread met first in the scheduler's
/// iteration order, which is the iteration order of its std::unordered_map
/// thread table. The scheduler iterates a cached copy of that order, rebuilt
/// by addThread, removeThread and clear, so the hot path neither walks hash
/// buckets nor looks threads up by id (tests/sched/dispatch_order_test.cpp
/// pins the resulting pick sequence).
class Scheduler {
 public:
  /// The most cores a scheduler supports (the affinity mask's width).
  static constexpr std::size_t kMaxCores = 32;

  explicit Scheduler(SchedulerConfig config);
  /// Not copyable: the cached order and per-core runners point into the
  /// thread table.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers a thread; it starts Runnable on the least-loaded allowed core.
  /// Thread ids must be unique and the mask must allow at least one core.
  void addThread(ThreadId id, AffinityMask affinity);

  /// Removes a thread entirely (e.g. application torn down).
  void removeThread(ThreadId id);
  /// Removes all threads (application switch).
  void clear();

  /// Overrides a thread's affinity mask. If its current core is no longer
  /// allowed it migrates immediately to the least-loaded allowed core.
  void setAffinity(ThreadId id, AffinityMask affinity);

  /// Sets a thread's fair-share weight (the CFS nice-level analogue): a
  /// thread with weight 2 receives twice the CPU share of a weight-1 thread
  /// on the same core, and counts double for load balancing. Must be > 0.
  void setWeight(ThreadId id, double weight);

  /// Workload-driven state transitions.
  void block(ThreadId id);
  void wake(ThreadId id);
  void finish(ThreadId id);

  /// Hot-(un)plugs a core. Taking a core offline immediately evicts its
  /// threads to the least-loaded allowed online core; a thread whose mask
  /// allows no online core has its affinity broken to all online cores first
  /// (the Linux hotplug behaviour: cpuset violations are resolved by reset,
  /// not by starving the thread). The last online core cannot be removed.
  void setCoreOnline(CoreId core, bool online);
  [[nodiscard]] bool coreOnline(CoreId core) const {
    expects(static_cast<std::size_t>(core) < config_.coreCount,
            "Scheduler::coreOnline: core beyond coreCount");
    return online_.allows(core);
  }
  /// Number of cores currently online.
  [[nodiscard]] std::size_t onlineCount() const noexcept {
    return static_cast<std::size_t>(online_.count());
  }
  /// Times a hotplug had to break a thread's affinity mask to place it.
  [[nodiscard]] std::uint64_t affinityBreaks() const noexcept { return affinityBreaks_; }

  /// Advances scheduling state by one tick: picks, per core, the runnable
  /// thread with the smallest vruntime; charges vruntime and cpu time; runs
  /// the load balancer when its interval elapses. Returns what ran where;
  /// the reference stays valid until the next schedule() call.
  [[nodiscard]] const Dispatch& schedule(Seconds dt);

  /// Effective execution speed multiplier for a thread (1.0 normally, reduced
  /// during the post-migration cache-warmth penalty window).
  [[nodiscard]] double speedFactor(ThreadId id) const;
  /// speedFactor() of the thread the last schedule() ran on `core`, without
  /// an id lookup; 1.0 for a core that ran nothing.
  [[nodiscard]] double coreSpeed(std::size_t core) const {
    expects(core < config_.coreCount, "Scheduler::coreSpeed: core beyond coreCount");
    const ThreadInfo* t = runners_[core];
    return t != nullptr ? speedOf(*t) : 1.0;
  }

  [[nodiscard]] const ThreadInfo& thread(ThreadId id) const;
  [[nodiscard]] std::vector<ThreadId> threadsOnCore(CoreId core) const;
  [[nodiscard]] std::size_t coreCount() const noexcept { return config_.coreCount; }
  [[nodiscard]] std::size_t threadCount() const noexcept { return threads_.size(); }
  [[nodiscard]] std::uint64_t totalMigrations() const noexcept { return totalMigrations_; }

  /// Force one load-balancing pass now (also runs automatically).
  void balanceNow();

 private:
  ThreadInfo& mutableThread(ThreadId id);
  /// Re-reads the thread table's iteration order into order_; called after
  /// every insertion or erasure.
  void rebuildOrder();
  [[nodiscard]] double speedOf(const ThreadInfo& t) const noexcept {
    return t.migrationCooldown > 0.0 ? config_.migrationSpeedFactor : 1.0;
  }
  /// Per core, the summed weight of its Runnable and Running threads, each
  /// core's sum taken in dispatch order.
  using CoreLoads = std::array<double, kMaxCores>;
  [[nodiscard]] CoreLoads runnableLoads() const;
  [[nodiscard]] bool anyOnlineAllowed(const AffinityMask& mask) const;
  [[nodiscard]] CoreId leastLoadedAllowed(const AffinityMask& mask) const;
  void migrate(ThreadInfo& t, CoreId target);

  SchedulerConfig config_;
  std::unordered_map<ThreadId, ThreadInfo> threads_;
  /// threads_ in its iteration order (node pointers survive rehashes).
  std::vector<ThreadInfo*> order_;
  Dispatch dispatch_;
  /// Per core, the thread dispatch_ ran there (nullptr when idle).
  std::vector<ThreadInfo*> runners_;
  /// The cores currently online.
  AffinityMask online_;
  Seconds sinceBalance_ = 0.0;
  std::uint64_t totalMigrations_ = 0;
  std::uint64_t affinityBreaks_ = 0;
};

}  // namespace rltherm::sched
