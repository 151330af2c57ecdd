// Abstraction of the workload layer as seen by a thermal policy.
//
// The paper's run-time system needs exactly two things from the application
// side: a performance signal (measured performance against the constraint,
// for the reward) and a way to enforce thread-affinity decisions.
// WorkloadDriver implements it in every mode (sequential, concurrent,
// replicated), and fault::GatedWorkloadControl wraps it, so every policy
// works unchanged against any run.
#pragma once

#include <span>
#include <string>

#include "common/error.hpp"
#include "sched/affinity.hpp"

namespace rltherm::workload {

/// A replication decision from the policy side: run `degree` redundant
/// copies of each managed thread group, steering the copies' placement away
/// from the cores in `avoid` (typically the supervisor's suspect/quarantined
/// set). Only a run under a ReplicationPlan honours it; elsewhere the
/// request is ignored, so every policy works unchanged against every run.
struct ReplicationRequest {
  int degree = 1;                ///< redundant copies per thread group (1..3)
  sched::AffinityMask avoid{};   ///< cores replicas should steer away from
};

/// How a replicated group's redundant copies are merged into delivered work.
enum class MergePolicy {
  /// The group completes when the FIRST replica finishes; delivered work is
  /// the best replica's credited (untainted) iterations. Cheapest latency,
  /// tolerates any number of straggler/tainted replicas.
  FirstFinisher,
  /// The group completes when a MAJORITY of replicas (floor(d/2)+1)
  /// finished; delivered work is the majority-rank credited count, i.e. a
  /// majority of replicas independently produced that much untainted output.
  MajorityVote,
};

[[nodiscard]] constexpr const char* toString(MergePolicy policy) noexcept {
  return policy == MergePolicy::FirstFinisher ? "first_finisher" : "majority_vote";
}

/// The static configuration of learned replication: how replicas merge and
/// the bounds within which the policy may move the degree. The live degree
/// itself is an action (ReplicationRequest), chosen online by the RL agent
/// or a supervisor. Everything in the plan is fingerprinted into
/// checkpoints; everything in the request is learned.
struct ReplicationPlan {
  MergePolicy merge = MergePolicy::FirstFinisher;
  int initialDegree = 1;  ///< replicas per group before any policy decision
  int maxDegree = 3;      ///< hard ceiling the policy may request (1..3)

  /// Throws PreconditionError on an inconsistent plan.
  void validate() const {
    expects(maxDegree >= 1 && maxDegree <= 3,
            "ReplicationPlan: maxDegree must be in [1, 3], got " +
                std::to_string(maxDegree));
    expects(initialDegree >= 1 && initialDegree <= maxDegree,
            "ReplicationPlan: initialDegree must be in [1, maxDegree], got " +
                std::to_string(initialDegree));
  }

  /// Replicas that must finish before a group completes under this plan's
  /// merge policy, for a group of `degree` replicas.
  [[nodiscard]] int quorum(int degree) const noexcept {
    if (merge == MergePolicy::FirstFinisher) return 1;
    return degree / 2 + 1;  // a strict majority
  }
};

class WorkloadControl {
 public:
  virtual ~WorkloadControl() = default;

  /// Measured performance normalized by the constraint: >= 1 means the
  /// constraint is met. Implementations return 1 when no signal is
  /// available yet (cold throughput window, idle).
  [[nodiscard]] virtual double performanceRatio() const = 0;

  /// Pin the managed threads with the given per-slot pattern (entries map
  /// thread slot -> mask, repeating mod the pattern size); an empty span
  /// restores full affinity.
  virtual void applyAffinityPattern(std::span<const sched::AffinityMask> pattern) = 0;

  /// True exactly on the tick an application switch occurred (used only by
  /// baselines that receive an explicit switch signal).
  [[nodiscard]] virtual bool appJustSwitched() const = 0;

  /// Apply a replication decision. Only a run under a ReplicationPlan
  /// honours it; the default ignores the request.
  virtual void applyReplication(const ReplicationRequest& request) { (void)request; }

  /// Fraction of recently attempted work that was actually DELIVERED —
  /// i.e. survived any core failure that tainted an in-flight iteration.
  /// 1.0 without delivered-work accounting (no ReplicationPlan: every
  /// completed iteration counts), so reward terms keyed on this are inert
  /// by default.
  [[nodiscard]] virtual double deliveredWorkRatio() const { return 1.0; }
};

}  // namespace rltherm::workload
