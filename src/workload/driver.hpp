// The workload driver: runs applications on a Machine, advancing their
// thread phase machines with the work the scheduler dispatched, and exposes
// the performance signals (throughput vs constraint) the paper's reward
// function consumes.
//
// A run is a set of SLOTS. A slot runs a sequence of applications one
// INSTANCE at a time, and each instance runs as one or more REPLICAS:
// redundant copies of the same app whose credited iterations merge into the
// instance's delivered work. The constructor sets the layout:
//  - sequential: one slot running the scenario's apps back to back, one
//    replica each (the paper's inter-application scenario);
//  - replicated: the same slot under a ReplicationPlan. The plan's merge
//    policy sets how many replicas must finish (the quorum) and which
//    credited count is delivered (RL-TIME-style task replication);
//  - concurrent: one slot per app, all running at once and competing for
//    the cores, each optionally restarting its app when it finishes (server
//    mode; the paper's concurrent-applications future work).
//
// Replicas are independent failure domains. Under a plan, when a core is
// retired mid-run (fault core.dead / core.intermittent), only the replicas
// whose IN-FLIGHT iteration touched that core lose work: that iteration is
// tainted and never credited. Taint is a pure function of where the
// scheduler dispatched each replica and of the fault plan's core windows, so
// runs replay bit-identically at any --jobs. With no core failure every
// completed iteration is credited, so deliveredWorkRatio() is 1.0 at any
// degree. Without a plan there is no taint accounting at all.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "platform/machine.hpp"
#include "workload/control.hpp"
#include "workload/running_app.hpp"

namespace rltherm::workload {

/// An ordered list of applications executed back-to-back, e.g. the paper's
/// inter-application scenario "mpegdec-tachyon".
struct Scenario {
  std::string name;
  std::vector<AppSpec> apps;

  /// Convenience: "appA-appB" style name from the app family names.
  [[nodiscard]] static Scenario of(std::vector<AppSpec> apps);
};

/// Completion record for one application instance.
struct AppCompletion {
  std::string name;
  Seconds startTime = 0.0;
  Seconds endTime = 0.0;
  int iterations = 0;  ///< delivered: the merged credited count of the replicas

  [[nodiscard]] Seconds executionTime() const noexcept { return endTime - startTime; }
};

class WorkloadDriver final : public WorkloadControl {
 public:
  /// Sequential mode, or replicated mode when `plan` is set. The machine
  /// must outlive the driver. The first application is registered
  /// immediately (at the plan's initial degree).
  WorkloadDriver(platform::Machine& machine, Scenario scenario,
                 std::optional<ReplicationPlan> plan = std::nullopt);

  /// Concurrent mode: every app starts immediately in its own slot. With
  /// `restartFinished` a finished app restarts on the next tick and the run
  /// never completes; otherwise it completes once every app finished.
  WorkloadDriver(platform::Machine& machine, std::vector<AppSpec> apps, bool restartFinished);

  /// Advance one machine tick. Returns false once the run completed (the
  /// machine still ticks idle if called again).
  bool tick();

  [[nodiscard]] bool done() const;
  /// False when the slots restart their apps forever: such a run ends only
  /// at its caller's time limit.
  [[nodiscard]] bool canFinish() const noexcept { return !repeat_; }

  /// The first replica of slot `slot`'s running instance (nullptr between
  /// instances and after the slot finished).
  [[nodiscard]] const RunningApp* app(std::size_t slot = 0) const;
  /// The app slot `slot` runs (or ran last).
  [[nodiscard]] const AppSpec& spec(std::size_t slot) const;
  /// Finished instances of slot `slot`.
  [[nodiscard]] int runs(std::size_t slot) const;
  /// Iterations delivered by slot `slot` across all its instances.
  [[nodiscard]] int totalIterations(std::size_t slot) const;
  /// Sliding-window throughput of slot `slot`'s running instance
  /// (iterations/second of the merged replicas).
  [[nodiscard]] double throughput(std::size_t slot = 0) const;

  /// One record per finished instance, in finishing order. A run that never
  /// finishes reports one record per slot instead, spanning the run so far
  /// with the iterations the slot accumulated.
  [[nodiscard]] std::vector<AppCompletion> completions() const;

  // --- WorkloadControl ---
  /// The worst running instance's throughput / Pc; 1.0 when nothing is
  /// measurable (cold throughput windows, idle).
  [[nodiscard]] double performanceRatio() const override;
  /// Pins every running replica: thread t of replica r in slot s gets
  /// pattern[(t + s + r) % n]. The rotation staggers concurrent apps and
  /// spreads redundant copies across cores, so one core failure does not
  /// taint every copy. Under a plan each mask is then steered away from the
  /// current avoid set.
  void applyAffinityPattern(std::span<const sched::AffinityMask> pattern) override;
  /// True exactly on the ticks a new instance started after the first ones
  /// (the next app of a sequence, or a restart): what an application-layer
  /// signal would tell the modified Ge policy.
  [[nodiscard]] bool appJustSwitched() const override { return switched_; }
  /// Under a plan: the degree takes effect at the next instance start; the
  /// avoid mask re-steers the running replicas immediately. Ignored without
  /// a plan.
  void applyReplication(const ReplicationRequest& request) override;
  /// Credited / (credited + tainted) replica iterations over a sliding
  /// window; 1.0 while cold, fault-free or without a plan.
  [[nodiscard]] double deliveredWorkRatio() const override;

  /// Under a plan: merged delivered iterations of the finished instances
  /// plus the running ones' current merge. 0 without a plan.
  [[nodiscard]] std::int64_t deliveredIterations() const;
  /// Replica iterations lost to core failures (0 without a plan).
  [[nodiscard]] std::int64_t taintedIterations() const noexcept { return taintedTotal_; }
  /// Replicas of slot 0's running (or last) instance.
  [[nodiscard]] int currentDegree() const noexcept { return slots_.front().degree; }

 private:
  struct Replica {
    std::unique_ptr<RunningApp> app;  ///< null once finished and torn down
    int lastIterations = 0;           ///< iteration count at the previous tick
    std::uint64_t coresTouched = 0;   ///< core bitmask of the in-flight iteration
    bool taintPending = false;        ///< in-flight iteration touched a dead core
    std::int64_t credited = 0;        ///< untainted completed iterations
  };

  /// FIFO of samples (each with a `time`) in a ring whose capacity
  /// doubles, keeping a power of two, only when it is full. It settles at
  /// one window of ticks, after which pushing and popping a sample per tick
  /// allocates nothing.
  template <typename Sample>
  class SampleWindow {
   public:
    /// Appends `sample` and drops samples older than `span`, keeping two.
    void record(const Sample& sample, Seconds span);
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] const Sample& front() const { return slots_[head_]; }
    [[nodiscard]] const Sample& back() const {
      return slots_[(head_ + count_ - 1) & (slots_.size() - 1)];
    }
    void clear() noexcept { head_ = count_ = 0; }

   private:
    std::vector<Sample> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  struct Progress {
    Seconds time = 0.0;
    int iterations = 0;  ///< merged, over the slot's instances
  };
  struct Delivery {
    Seconds time = 0.0;
    std::int64_t credited = 0;  ///< creditedTotal_
    std::int64_t tainted = 0;   ///< taintedTotal_
  };

  struct Slot {
    std::size_t first = 0;  ///< the slot runs apps_[first, end) in order
    std::size_t end = 0;
    std::size_t current = 0;  ///< app index of the running (or last) instance
    std::size_t next = 0;     ///< app index of the next instance; end = none
    std::vector<Replica> replicas;  ///< empty between instances
    int degree = 1;
    Seconds start = 0.0;
    int runs = 0;
    int iterationsBase = 0;  ///< delivered by finished instances
    SampleWindow<Progress> window;  ///< of the running instance
  };

  /// Concurrent: one slot per app; otherwise one slot running them all.
  WorkloadDriver(platform::Machine& machine, std::vector<AppSpec> apps, bool concurrent,
                 bool repeat, std::optional<ReplicationPlan> plan);

  void startInstance(std::size_t slot);
  void finishInstance(std::size_t slot);
  void detectCoreFailures();
  void account(Replica& replica);
  void place(std::size_t slot);
  /// The quorum-th largest credited (or attempted) count of the slot's
  /// replicas: the best under first-finisher, the majority rank under vote.
  [[nodiscard]] std::int64_t merged(const Slot& slot, bool credited) const;
  [[nodiscard]] int quorum(const Slot& slot) const noexcept;
  [[nodiscard]] Replica& replicaOf(ThreadId id);
  [[nodiscard]] sched::AffinityMask steerAway(const sched::AffinityMask& mask) const;
  [[nodiscard]] const Slot& slotAt(std::size_t slot) const;
  /// Iterations/second between the oldest and newest sample; 0 with fewer
  /// than two.
  [[nodiscard]] static double rate(const SampleWindow<Progress>& window);

  platform::Machine& machine_;
  std::vector<AppSpec> apps_;
  /// Live replica of each (app, replica) thread-id block, null otherwise:
  /// the one lookup a dispatched thread id needs.
  std::vector<Replica*> replicaOfId_;
  ThreadId lastBlockFirst_ = 0;  ///< first id of the block replicaOf() saw last
  Replica* lastReplica_ = nullptr;
  std::vector<Slot> slots_;
  bool repeat_ = false;
  std::optional<ReplicationPlan> plan_;
  bool switched_ = false;
  std::vector<AppCompletion> completions_;
  std::vector<sched::AffinityMask> pattern_;  ///< empty = free placement

  int pendingDegree_ = 1;  ///< degree requested for the next instance
  sched::AffinityMask avoid_{};
  std::vector<char> coreWasOnline_;  ///< to detect retirements between ticks
  std::int64_t creditedTotal_ = 0;       ///< per replica, all instances
  std::int64_t taintedTotal_ = 0;
  SampleWindow<Delivery> delivery_;
  Seconds window_ = 20.0;
};

/// Standard thread-to-core affinity patterns used as the mapping half of the
/// action space (Section 5.1 restricts the exponentially many masks to a few
/// alternatives). Pattern i assigns app-thread slot j to pattern[j % n].
struct AffinityPattern {
  std::string name;
  std::vector<sched::AffinityMask> masks;  ///< empty => Linux-default (full masks)
};

/// The pattern catalogue for 6-thread apps on 4 cores:
///   free      - Linux default placement (no pinning)
///   paired    - cores {0,0,1,1,2,3}: the paper's motivational pinning
///   spread    - round-robin {0,1,2,3,0,1}
///   packed2   - all threads on cores 0-1
///   corner3   - threads on cores {0,1,2} leaving core 3 cool
[[nodiscard]] std::vector<AffinityPattern> standardPatterns(std::size_t coreCount);

}  // namespace rltherm::workload
