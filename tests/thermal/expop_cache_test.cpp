// ExpOperatorCache behaviour: hit/miss accounting, fingerprint sensitivity,
// sharing, and — the property that matters for correctness — a cache hit
// producing the SAME simulated trajectory, bit for bit, as a cold prepare.
//
// The cache is process-global, so every test clears it up front; counters
// asserted here are deltas from that clear.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "thermal/expop_cache.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/rc_network.hpp"

namespace rltherm::thermal {
namespace {

constexpr Seconds kTick = 0.01;

/// The grid64 plant: 4 cores of 4x4 cells, 66 nodes.
GridPackage grid64(const GridThermalConfig& config = {}) { return GridPackage(config, 4, 4); }

TEST(ExpOpCache, ColdPrepareMissesThenIdenticalPrepareHits) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();
  cache.setEnabled(true);

  GridPackage first = grid64();
  first.prepare(kTick);
  ExpOpCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);

  GridPackage second = grid64();
  second.prepare(kTick);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // Shared entry, not a copy: both networks hold the same packed operator.
  EXPECT_EQ(first.network().preparedOperator(), second.network().preparedOperator());
  EXPECT_EQ(first.network().operatorFingerprint(), second.network().operatorFingerprint());
}

TEST(ExpOpCache, FingerprintSeparatesStepSizeAndNetworkAndOptions) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();
  cache.setEnabled(true);

  GridPackage base = grid64();
  base.prepare(kTick);
  const std::uint64_t baseFp = base.network().operatorFingerprint();

  // Different step size.
  GridPackage slower = grid64();
  slower.prepare(kTick * 2);
  EXPECT_NE(slower.network().operatorFingerprint(), baseFp);

  // Different conductances (one resistance nudged).
  GridThermalConfig tweaked;
  tweaked.junctionToSpreader *= 1.01;
  GridPackage different = grid64(tweaked);
  different.prepare(kTick);
  EXPECT_NE(different.network().operatorFingerprint(), baseFp);

  // Different ambient temperature: same E and F, different offset d.
  GridThermalConfig warmer;
  warmer.ambient += 1.0;
  GridPackage hotRoom = grid64(warmer);
  hotRoom.prepare(kTick);
  EXPECT_NE(hotRoom.network().operatorFingerprint(), baseFp);

  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().entries, 4u);
}

TEST(ExpOpCache, InputMapSeparatesFingerprintsAndEqualMapsHit) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();
  cache.setEnabled(true);

  // The same network folded with two different input maps is two different
  // operators; a second package with an equal map shares the first entry.
  GridPackage perCore = grid64();
  perCore.prepare(kTick);
  RcNetwork perNode = perCore.network();
  perNode.prepare(kTick);  // identity map: one input per node
  EXPECT_NE(perCore.network().operatorFingerprint(), perNode.operatorFingerprint());
  EXPECT_EQ(perNode.inputCount(), perNode.nodeCount());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);

  GridPackage again = grid64();
  again.prepare(kTick);
  EXPECT_EQ(again.network().operatorFingerprint(), perCore.network().operatorFingerprint());
  EXPECT_EQ(again.network().preparedOperator(), perCore.network().preparedOperator());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ExpOpCache, DisabledCacheNeverReturnsEntriesAndStopsCounting) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();
  cache.setEnabled(false);

  GridPackage first = grid64();
  first.prepare(kTick);
  GridPackage second = grid64();
  second.prepare(kTick);
  const ExpOpCacheStats stats = cache.stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  // Each prepare built a private operator: still correct, just unshared.
  EXPECT_NE(first.network().preparedOperator(), second.network().preparedOperator());

  cache.setEnabled(true);
}

TEST(ExpOpCache, WarmHitTrajectoryIsBitIdenticalToColdPrepare) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();
  cache.setEnabled(true);

  GridPackage cold = grid64();
  cold.prepare(kTick);  // miss: computes and publishes the entry
  GridPackage warm = grid64();
  warm.prepare(kTick);  // hit: adopts the shared entry
  ASSERT_EQ(cache.stats().hits, 1u);

  const std::vector<Watts> corePower = {3.0, 0.5, 2.0, 1.0};
  for (std::size_t t = 0; t < 500; ++t) {
    cold.network().step(corePower);
    warm.network().step(corePower);
    const std::span<const Celsius> a = cold.network().temperatures();
    const std::span<const Celsius> b = warm.network().temperatures();
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(Celsius)))
        << "cache hit diverged from cold prepare at tick " << t;
  }
}

TEST(ExpOpCache, ClearEmptiesEntriesAndZeroesCounters) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();
  cache.setEnabled(true);

  GridPackage package = grid64();
  package.prepare(kTick);
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.clear();
  const ExpOpCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts + stats.evictions, 0u);
}

TEST(ExpOpCache, PublishWritesAmbientMetrics) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();
  cache.setEnabled(true);

  GridPackage first = grid64();
  first.prepare(kTick);
  GridPackage second = grid64();
  second.prepare(kTick);

  obs::MetricsRegistry registry;
  obs::Session session;
  session.metrics = &registry;
  {
    const obs::ScopedSession guard(session);
    publishExpOpCacheMetrics();
  }
  EXPECT_EQ(registry.counter("thermal.expop.cache.hit").value(), 1u);
  EXPECT_EQ(registry.counter("thermal.expop.cache.miss").value(), 1u);
  EXPECT_EQ(registry.gauge("thermal.expop.cache.entries").value(), 1.0);
}

}  // namespace
}  // namespace rltherm::thermal
