// Scenario driver: runs a sequence of applications back-to-back on a Machine,
// advancing thread phase machines with the work the scheduler dispatched and
// exposing the performance signals (throughput vs constraint) the paper's
// reward function consumes.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
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

/// Completion record for one application of the scenario.
struct AppCompletion {
  std::string name;
  Seconds startTime = 0.0;
  Seconds endTime = 0.0;
  int iterations = 0;

  [[nodiscard]] Seconds executionTime() const noexcept { return endTime - startTime; }
};

class WorkloadDriver final : public WorkloadControl {
 public:
  /// The machine must outlive the driver. The first application's threads
  /// are registered immediately.
  WorkloadDriver(platform::Machine& machine, Scenario scenario);

  /// Advance one machine tick. Returns false once every application in the
  /// scenario has completed (the machine still ticks idle if called again).
  bool tick();

  [[nodiscard]] bool done() const noexcept { return current_ == nullptr && nextApp_ >= scenario_.apps.size(); }

  /// The currently-running application (nullptr between/after apps).
  [[nodiscard]] const RunningApp* current() const noexcept { return current_.get(); }

  /// True exactly once per application switch: on the first tick() after an
  /// app completed and the next started. Mirrors what an application-layer
  /// signal would tell the modified Ge policy.
  [[nodiscard]] bool appJustSwitched() const override { return switchedFlag_; }

  /// Throughput (iterations/second) of the current app over a sliding window.
  [[nodiscard]] double currentThroughput() const;

  /// The current app's performance constraint Pc (0 when idle).
  [[nodiscard]] double performanceConstraint() const;

  /// Throughput / Pc of the current app; 1.0 while the window is cold.
  [[nodiscard]] double performanceRatio() const override;

  [[nodiscard]] const std::vector<AppCompletion>& completions() const noexcept {
    return completions_;
  }

  /// Applies a per-thread-slot affinity pattern to the current app's threads.
  /// Pattern entries map thread index (mod pattern size) to a mask; an empty
  /// span restores full affinity for all threads.
  void applyAffinityPattern(std::span<const sched::AffinityMask> pattern) override;

  [[nodiscard]] platform::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }

 private:
  void startNextApp();
  void recordIterationSamples();

  platform::Machine& machine_;
  Scenario scenario_;
  std::size_t nextApp_ = 0;
  std::unique_ptr<RunningApp> current_;
  Seconds currentStart_ = 0.0;
  std::vector<AppCompletion> completions_;
  bool switchedFlag_ = false;
  bool firstAppStarted_ = false;

  /// FIFO of (time, cumulative iterations) samples in a ring whose capacity
  /// doubles, keeping a power of two, only when it is full. It settles at
  /// one throughput window of ticks (the memory a std::deque would hold),
  /// after which pushing and popping a sample per tick allocates nothing.
  class SampleRing {
   public:
    using Sample = std::pair<Seconds, int>;
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] const Sample& front() const { return slots_[head_]; }
    [[nodiscard]] const Sample& back() const {
      return slots_[(head_ + count_ - 1) & (slots_.size() - 1)];
    }
    void push_back(const Sample& sample);
    void pop_front() noexcept {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --count_;
    }
    void clear() noexcept { head_ = count_ = 0; }

   private:
    std::vector<Sample> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  SampleRing throughputSamples_;
  Seconds throughputWindow_ = 20.0;
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
