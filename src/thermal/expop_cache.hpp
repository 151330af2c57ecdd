// Process-wide cache of prepared RC step operators.
//
// prepare() costs O(n³) (matrix exponential + LU solves) while a step costs
// O(n²); a sweep that builds hundreds of identical machines, or a tenant
// re-preparing the same package at the same tick, pays the O(n³) once when
// the cache is warm. Entries are keyed by an FNV-1a fingerprint over every
// input that determines the packed operator (step size, conductance matrix,
// inverse capacitances, ambient conductances and temperature, input map —
// see RcNetwork::prepare), following the canonical-encoding convention of
// the checkpoint store's fingerprint (src/store/policy_checkpoint.cpp).
//
// Determinism: a cached PreparedStep is immutable and byte-identical to
// what a cold prepare() would compute (same inputs, same deterministic
// algorithm), so sharing it across sweep worker threads cannot change any
// simulated value — the sweep bit-identity guarantee holds with the cache
// on (tested at --jobs 1/2/8). The hit/miss COUNTS, however, depend on
// scheduling order; they live in process-global atomics here and are only
// published to a metrics registry on explicit request
// (publishExpOpCacheMetrics), never into a run's private session, so
// per-run metric streams stay scheduling-independent.
//
// The cache can be disabled programmatically (setEnabled) or for a whole
// process with the environment variable RLTHERM_EXPOP_CACHE=0 — the
// fail-open probe in scripts/check.sh uses the latter to prove the step
// kernel's speedup does not depend on stale cached operators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/types.hpp"

namespace rltherm::thermal {

/// Rows per tile of the packed operator: four 2-wide, two 4-wide or one
/// 8-wide SIMD accumulator (step_kernel.hpp).
inline constexpr std::size_t kTileRows = 8;

/// Allocates on cache-line (64-byte) boundaries, so no SIMD load of a tile
/// column splits across two cache lines. With the default 16-byte alignment
/// half the 32-byte AVX2 loads could split, depending on the heap's state,
/// and the kernel's speed varied from one process to the next.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  CacheLineAllocator() = default;
  template <typename U>
  explicit CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept { ::operator delete(p, kAlign); }
  friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) noexcept {
    return true;
  }
};

/// Everything prepare() derives from (stepSize, network, input map):
/// immutable once built, shared by every network with the same fingerprint.
struct PreparedStep {
  Seconds stepSize = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t nodes = 0;   ///< n
  std::size_t inputs = 0;  ///< m
  /// [E | F] in ceil(n / kTileRows) row tiles. Tile t holds rows
  /// [t*kTileRows, (t+1)*kTileRows) of its n + m columns, column by column
  /// (kTileRows contiguous values per column); rows past n are zero.
  std::vector<double, CacheLineAllocator<double>> tiles;
  /// d = Phi C^{-1} G_amb T_amb, zero-padded to whole tiles.
  std::vector<double, CacheLineAllocator<double>> offset;
};

struct ExpOpCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  bool enabled = true;
};

class ExpOperatorCache {
 public:
  /// The process-wide instance. Enabled unless RLTHERM_EXPOP_CACHE is set
  /// to "0", "off" or "false" at first use.
  [[nodiscard]] static ExpOperatorCache& instance();

  [[nodiscard]] bool enabled() const noexcept;
  void setEnabled(bool enabled) noexcept;

  /// Returns the cached step for the fingerprint (counting a hit), or
  /// nullptr (counting a miss). Always nullptr when disabled (no counting).
  [[nodiscard]] std::shared_ptr<const PreparedStep> lookup(std::uint64_t fingerprint);

  /// Inserts (first writer wins) and returns the canonical shared entry —
  /// callers must keep the returned pointer, not their argument. At
  /// capacity the oldest entry is evicted. When disabled, returns the
  /// argument untouched.
  [[nodiscard]] std::shared_ptr<const PreparedStep> store(
      std::shared_ptr<const PreparedStep> step);

  /// Drops every entry and zeroes the counters (tests and cold-prepare
  /// benchmarks).
  void clear();

  [[nodiscard]] ExpOpCacheStats stats() const;

 private:
  ExpOperatorCache();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Publish the cache totals to the AMBIENT metrics registry, if one is
/// attached: counters thermal.expop.cache.hit / thermal.expop.cache.miss
/// and gauge thermal.expop.cache.entries. Counters accumulate across calls,
/// so call this once per process at report time (CLI/bench top level) —
/// deliberately never from inside a sweep run, whose metric streams must
/// not depend on scheduling order.
void publishExpOpCacheMetrics();

}  // namespace rltherm::thermal
