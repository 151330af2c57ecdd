#include "thermal/expop_cache.hpp"

#include <atomic>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <string_view>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace rltherm::thermal {

namespace {

/// Enough distinct (package, step size, input map) tuples for any realistic
/// sweep; beyond this the oldest operator is evicted (FIFO — preparation
/// patterns are bursts at sweep start, not LRU-shaped).
constexpr std::size_t kMaxEntries = 64;

bool enabledFromEnvironment() noexcept {
  const char* value = std::getenv("RLTHERM_EXPOP_CACHE");
  if (value == nullptr) return true;
  const std::string_view v(value);
  return !(v == "0" || v == "off" || v == "OFF" || v == "false" || v == "FALSE");
}

}  // namespace

struct ExpOperatorCache::Impl {
  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> inserts{0};
  std::atomic<std::uint64_t> evictions{0};

  std::mutex mutex;
  std::map<std::uint64_t, std::shared_ptr<const PreparedStep>> entries;
  std::deque<std::uint64_t> insertionOrder;
};

ExpOperatorCache::ExpOperatorCache() : impl_(std::make_unique<Impl>()) {
  impl_->enabled.store(enabledFromEnvironment(), std::memory_order_relaxed);
}

ExpOperatorCache& ExpOperatorCache::instance() {
  static ExpOperatorCache cache;
  return cache;
}

bool ExpOperatorCache::enabled() const noexcept {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void ExpOperatorCache::setEnabled(bool enabled) noexcept {
  impl_->enabled.store(enabled, std::memory_order_relaxed);
}

std::shared_ptr<const PreparedStep> ExpOperatorCache::lookup(
    std::uint64_t fingerprint) {
  if (!enabled()) return nullptr;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->entries.find(fingerprint);
  if (it == impl_->entries.end()) {
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  impl_->hits.fetch_add(1, std::memory_order_relaxed);
  ensures(it->second != nullptr && it->second->fingerprint == fingerprint,
          "ExpOperatorCache::lookup: entry keyed under a foreign fingerprint");
  return it->second;
}

std::shared_ptr<const PreparedStep> ExpOperatorCache::store(
    std::shared_ptr<const PreparedStep> step) {
  expects(step != nullptr, "ExpOperatorCache::store: null step");
  if (!enabled()) return step;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  // First writer wins: two workers racing to prepare the same fingerprint
  // computed byte-identical operators, so which copy survives is
  // irrelevant — but every caller must adopt the canonical one so the
  // cache holds a single allocation per fingerprint.
  const auto [it, inserted] = impl_->entries.emplace(step->fingerprint, step);
  if (!inserted) return it->second;
  impl_->inserts.fetch_add(1, std::memory_order_relaxed);
  impl_->insertionOrder.push_back(step->fingerprint);
  if (impl_->entries.size() > kMaxEntries) {
    impl_->entries.erase(impl_->insertionOrder.front());
    impl_->insertionOrder.pop_front();
    impl_->evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return step;
}

void ExpOperatorCache::clear() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->entries.clear();
  impl_->insertionOrder.clear();
  impl_->hits.store(0, std::memory_order_relaxed);
  impl_->misses.store(0, std::memory_order_relaxed);
  impl_->inserts.store(0, std::memory_order_relaxed);
  impl_->evictions.store(0, std::memory_order_relaxed);
  ensures(impl_->entries.empty() && impl_->insertionOrder.empty(),
          "ExpOperatorCache::clear: entries survived the clear");
}

ExpOpCacheStats ExpOperatorCache::stats() const {
  ExpOpCacheStats s;
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.inserts = impl_->inserts.load(std::memory_order_relaxed);
  s.evictions = impl_->evictions.load(std::memory_order_relaxed);
  s.enabled = enabled();
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    s.entries = impl_->entries.size();
  }
  ensures(s.entries <= kMaxEntries,
          "ExpOperatorCache::stats: entry count above the eviction capacity");
  return s;
}

void publishExpOpCacheMetrics() {
  obs::MetricsRegistry* metrics = obs::metrics();
  if (metrics == nullptr) return;
  const ExpOpCacheStats s = ExpOperatorCache::instance().stats();
  metrics->counter("thermal.expop.cache.hit").add(s.hits);
  metrics->counter("thermal.expop.cache.miss").add(s.misses);
  metrics->gauge("thermal.expop.cache.entries").set(static_cast<double>(s.entries));
  ensures(metrics->counter("thermal.expop.cache.hit").value() >= s.hits,
          "publishExpOpCacheMetrics: hit counter lost the published total");
}

}  // namespace rltherm::thermal
