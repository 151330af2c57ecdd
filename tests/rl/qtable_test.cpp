#include "rl/qtable.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rltherm::rl {
namespace {

TEST(QTableTest, InitialValueEverywhere) {
  const QTable table(3, 4, 0.5);
  EXPECT_EQ(table.stateCount(), 3u);
  EXPECT_EQ(table.actionCount(), 4u);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t a = 0; a < 4; ++a) EXPECT_DOUBLE_EQ(table.value(s, a), 0.5);
  }
}

TEST(QTableTest, UpdateMatchesEquationSeven) {
  QTable table(2, 2);
  table.setValue(1, 0, 2.0);
  table.setValue(1, 1, 3.0);
  // Q(0,0) += alpha * (R + gamma * max_a Q(1,a) - Q(0,0))
  //         = 0 + 0.5 * (1.0 + 0.9 * 3.0 - 0.0) = 1.85
  const double q = table.update(0, 0, 1.0, 1, 0.5, 0.9);
  EXPECT_NEAR(q, 1.85, 1e-12);
  EXPECT_NEAR(table.value(0, 0), 1.85, 1e-12);
}

TEST(QTableTest, AlphaOneJumpsToTarget) {
  QTable table(2, 2);
  table.setValue(1, 1, 4.0);
  table.update(0, 0, 2.0, 1, 1.0, 0.5);
  EXPECT_NEAR(table.value(0, 0), 2.0 + 0.5 * 4.0, 1e-12);
}

TEST(QTableTest, AlphaZeroIsNoOp) {
  QTable table(2, 2);
  table.setValue(0, 0, 7.0);
  table.update(0, 0, 100.0, 1, 0.0, 0.9);
  EXPECT_DOUBLE_EQ(table.value(0, 0), 7.0);
}

TEST(QTableTest, BestActionArgmax) {
  QTable table(1, 3);
  table.setValue(0, 0, 1.0);
  table.setValue(0, 1, 5.0);
  table.setValue(0, 2, 3.0);
  EXPECT_EQ(table.bestAction(0), 1u);
  EXPECT_DOUBLE_EQ(table.maxValue(0), 5.0);
}

TEST(QTableTest, TieBreaksToLowestIndex) {
  QTable table(1, 3);
  table.setValue(0, 1, 2.0);
  table.setValue(0, 2, 2.0);
  EXPECT_EQ(table.bestAction(0), 1u);
  const QTable zeros(1, 5);
  EXPECT_EQ(zeros.bestAction(0), 0u);
}

TEST(QTableTest, VisitCountsPerState) {
  QTable table(2, 2);
  table.update(0, 0, 1.0, 1, 0.5, 0.5);
  table.update(0, 1, 1.0, 1, 0.5, 0.5);
  table.update(1, 0, 1.0, 0, 0.5, 0.5);
  EXPECT_EQ(table.visitCount(0), 2u);
  EXPECT_EQ(table.visitCount(1), 1u);
}

TEST(QTableTest, CoverageTracksTouchedEntries) {
  QTable table(2, 2);
  EXPECT_DOUBLE_EQ(table.coverage(), 0.0);
  table.update(0, 0, 1.0, 1, 0.5, 0.5);
  EXPECT_DOUBLE_EQ(table.coverage(), 0.25);
  table.update(0, 0, 1.0, 1, 0.5, 0.5);  // same entry, no coverage change
  EXPECT_DOUBLE_EQ(table.coverage(), 0.25);
  table.update(1, 1, 1.0, 0, 0.5, 0.5);
  EXPECT_DOUBLE_EQ(table.coverage(), 0.5);
}

TEST(QTableTest, ResetClearsValuesAndCoverage) {
  QTable table(2, 2);
  table.update(0, 0, 5.0, 1, 1.0, 0.0);
  table.reset();
  EXPECT_DOUBLE_EQ(table.value(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(table.coverage(), 0.0);
  EXPECT_EQ(table.visitCount(0), 0u);
  table.reset(1.5);
  EXPECT_DOUBLE_EQ(table.value(1, 1), 1.5);
}

TEST(QTableTest, SnapshotRestoreRoundTrip) {
  QTable table(2, 2);
  table.setValue(0, 1, 3.0);
  const std::vector<double> snap = table.snapshot();
  table.setValue(0, 1, -1.0);
  table.restore(snap);
  EXPECT_DOUBLE_EQ(table.value(0, 1), 3.0);
}

TEST(QTableTest, RestoreSizeMismatchThrows) {
  QTable table(2, 2);
  EXPECT_THROW(table.restore(std::vector<double>(3, 0.0)), PreconditionError);
}

TEST(QTableTest, OutOfRangeThrows) {
  QTable table(2, 2);
  EXPECT_THROW((void)table.value(2, 0), PreconditionError);
  EXPECT_THROW((void)table.value(0, 2), PreconditionError);
  EXPECT_THROW((void)table.bestAction(5), PreconditionError);
  EXPECT_THROW((void)table.update(0, 0, 1.0, 9, 0.5, 0.5), PreconditionError);
  EXPECT_THROW((void)table.update(0, 0, 1.0, 1, 1.5, 0.5), PreconditionError);
  EXPECT_THROW((void)table.update(0, 0, 1.0, 1, 0.5, 1.5), PreconditionError);
}

TEST(QTableTest, SnapshotIntoMatchesSnapshotWithoutReallocating) {
  QTable table(3, 4);
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    table.update(rng.uniformInt(3), rng.uniformInt(4), rng.uniform(), rng.uniformInt(3),
                 0.3, 0.9);
  }
  std::vector<double> buffer = table.snapshot();  // right-sized
  const double* data = buffer.data();
  const std::size_t capacity = buffer.capacity();
  table.snapshotInto(buffer);
  EXPECT_EQ(buffer, table.snapshot());
  // The copy-assign into a right-sized buffer must reuse its storage — this
  // is what keeps the per-epoch Q_exp refresh allocation-free.
  EXPECT_EQ(buffer.data(), data);
  EXPECT_EQ(buffer.capacity(), capacity);
  // restore() copy-assigns back into the table's own storage: the values
  // come back and the table keeps its buffer.
  table.update(0, 0, 5.0, 1, 0.3, 0.9);
  const double* values = table.values().data();
  table.restore(buffer);
  EXPECT_EQ(table.values(), buffer);
  EXPECT_EQ(table.values().data(), values);
}

TEST(QTableTest, RestoreFullRoundTripsValuesVisitsAndTouched) {
  QTable original(3, 4);
  Rng rng(13);
  for (int i = 0; i < 40; ++i) {
    original.update(rng.uniformInt(3), rng.uniformInt(4), rng.uniform(),
                    rng.uniformInt(3), 0.3, 0.9);
  }
  QTable copy(3, 4);
  copy.restoreFull(original.values(), original.visits(), original.touchedBytes());
  EXPECT_EQ(copy.values(), original.values());
  EXPECT_EQ(copy.visits(), original.visits());
  EXPECT_EQ(copy.touchedBytes(), original.touchedBytes());
  EXPECT_EQ(copy.coverage(), original.coverage());  // touched count recomputed
}

TEST(QTableTest, RestoreFullRejectsWrongGeometry) {
  QTable table(2, 2);
  const std::vector<double> values(4, 0.0);
  const std::vector<std::size_t> visits(4, 0);
  const std::vector<std::uint8_t> touched(4, 0);
  EXPECT_THROW(table.restoreFull(std::vector<double>(3, 0.0), visits, touched),
               PreconditionError);
  EXPECT_THROW(table.restoreFull(values, std::vector<std::size_t>(5, 0), touched),
               PreconditionError);
  EXPECT_THROW(table.restoreFull(values, visits, std::vector<std::uint8_t>(1, 0)),
               PreconditionError);
}

TEST(EpsilonGreedyTest, GreedyWhenEpsilonZero) {
  QTable table(1, 3);
  table.setValue(0, 2, 9.0);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(selectEpsilonGreedy(table, 0, 0.0, rng), 2u);
  }
}

TEST(EpsilonGreedyTest, FullyRandomWhenEpsilonOne) {
  QTable table(1, 4);
  table.setValue(0, 0, 100.0);  // greedy would always pick 0
  Rng rng(2);
  int nonGreedy = 0;
  for (int i = 0; i < 1000; ++i) {
    if (selectEpsilonGreedy(table, 0, 1.0, rng) != 0u) ++nonGreedy;
  }
  EXPECT_NEAR(nonGreedy, 750, 60);  // 3 of 4 actions are non-greedy
}

TEST(EpsilonGreedyTest, IntermediateEpsilonMixes) {
  QTable table(1, 2);
  table.setValue(0, 1, 1.0);
  Rng rng(3);
  int greedy = 0;
  for (int i = 0; i < 10000; ++i) {
    if (selectEpsilonGreedy(table, 0, 0.2, rng) == 1u) ++greedy;
  }
  // P(greedy) = 0.8 + 0.2 * 0.5 = 0.9
  EXPECT_NEAR(greedy, 9000, 150);
}

TEST(QLearningConvergenceTest, LearnsOptimalPolicyOnToyMdp) {
  // Two states, two actions. Action 1 always leads to state 1 with reward 1;
  // action 0 leads to state 0 with reward 0. Optimal: always act 1.
  QTable table(2, 2);
  Rng rng(7);
  std::size_t state = 0;
  for (int step = 0; step < 5000; ++step) {
    const std::size_t action = selectEpsilonGreedy(table, state, 0.2, rng);
    const std::size_t next = action == 1 ? 1u : 0u;
    const double reward = action == 1 ? 1.0 : 0.0;
    table.update(state, action, reward, next, 0.1, 0.9);
    state = next;
  }
  EXPECT_EQ(table.bestAction(0), 1u);
  EXPECT_EQ(table.bestAction(1), 1u);
  // Q*(s,1) = 1 / (1 - 0.9) = 10.
  EXPECT_NEAR(table.value(1, 1), 10.0, 0.6);
}

}  // namespace
}  // namespace rltherm::rl
