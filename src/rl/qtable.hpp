// Tabular Q-learning (Watkins, 1992), the learning core of the paper.
//
// The table stores Q(E, N) for every (state, action) pair; the paper's
// Eq. 7 update is
//   Q(E_i, N_i) += alpha * (R(E_i, E_{i+1}) + gamma * max_j Q(E_{i+1}, N_j)
//                           - Q(E_i, N_i)).
// The agent keeps two tables (Section 5.4): a live one updated every decision
// epoch and a snapshot frozen at the end of the exploration phase, restored
// on intra-application workload variation; snapshot()/restore() support that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace rltherm::rl {

class QTable {
 public:
  /// All entries start at `initialValue` (0 in the paper; a positive value
  /// gives optimistic initialization).
  /// @param firstVisitJump  when true, the FIRST update of an entry uses an
  ///        effective learning rate of 1 (the sample replaces the prior),
  ///        and the configured alpha applies from the second visit on. This
  ///        is what makes optimistic initialization work under a decaying
  ///        global alpha: without it, late-swept entries would stay pinned
  ///        near the optimistic prior forever.
  QTable(std::size_t stateCount, std::size_t actionCount, double initialValue = 0.0,
         bool firstVisitJump = false);

  [[nodiscard]] std::size_t stateCount() const noexcept { return states_; }
  [[nodiscard]] std::size_t actionCount() const noexcept { return actions_; }

  [[nodiscard]] double value(std::size_t state, std::size_t action) const;
  void setValue(std::size_t state, std::size_t action, double q);

  /// Highest Q value over actions for a state.
  [[nodiscard]] double maxValue(std::size_t state) const;

  /// Action with the highest Q value (smallest index wins ties, so greedy
  /// selection is deterministic).
  [[nodiscard]] std::size_t bestAction(std::size_t state) const;

  /// Eq. 7: update Q(state, action) from reward and the successor state.
  /// @returns the new Q value.
  double update(std::size_t state, std::size_t action, double reward,
                std::size_t nextState, double alpha, double gamma);

  /// Number of times update() touched this state (any action).
  [[nodiscard]] std::size_t visitCount(std::size_t state) const;

  /// Fraction of (state, action) entries ever updated — the "table filled"
  /// measure behind the paper's Fig. 8 convergence iterations.
  [[nodiscard]] double coverage() const noexcept;

  /// Reset all entries (inter-application variation: "Q <- Q0").
  void reset(double initialValue = 0.0);

  /// Copy-out / copy-in for the dual-table mechanism ("Q <- Q_exp").
  [[nodiscard]] std::vector<double> snapshot() const { return values_; }
  void restore(const std::vector<double>& snapshot);

  /// Allocation-free variant of snapshot(): copy-assigns into `out`, reusing
  /// its capacity. The per-epoch Q_exp refresh uses this so steady-state
  /// epochs allocate nothing (asserted by QTableTest.
  /// SnapshotIntoMatchesSnapshotWithoutReallocating).
  void snapshotInto(std::vector<double>& out) const { out = values_; }

  // --- checkpoint support (src/store/) ---
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }
  [[nodiscard]] const std::vector<std::size_t>& visits() const noexcept {
    return visits_;
  }
  /// Touched mask as bytes (0/1), vector<bool> being unserializable as-is.
  [[nodiscard]] std::vector<std::uint8_t> touchedBytes() const;
  /// Full-state restore for checkpoint loads; recomputes the touched count.
  /// Sizes must match the table's geometry.
  void restoreFull(const std::vector<double>& values,
                   const std::vector<std::size_t>& visits,
                   const std::vector<std::uint8_t>& touched);

 private:
  [[nodiscard]] std::size_t index(std::size_t state, std::size_t action) const;

  std::size_t states_;
  std::size_t actions_;
  bool firstVisitJump_;
  std::vector<double> values_;
  std::vector<std::size_t> visits_;
  std::vector<bool> touched_;
  std::size_t touchedCount_ = 0;
};

/// Epsilon-greedy selection: with probability epsilon a uniformly random
/// action (exploration), otherwise the greedy action.
[[nodiscard]] std::size_t selectEpsilonGreedy(const QTable& table, std::size_t state,
                                              double epsilon, Rng& rng);

}  // namespace rltherm::rl
