#include "thermal/expop_cache.hpp"

#include <atomic>
#include <deque>
#include <map>
#include <mutex>

#include "common/error.hpp"

namespace rltherm::thermal {

namespace {

/// Enough distinct (package, step-size) pairs for any realistic
/// sweep; beyond this the oldest operator is evicted (FIFO — preparation
/// patterns are bursts at sweep start, not LRU-shaped).
constexpr std::size_t kMaxEntries = 64;

}  // namespace

struct ExpOperatorCache::Impl {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> inserts{0};
  std::atomic<std::uint64_t> evictions{0};

  std::mutex mutex;
  std::map<std::uint64_t, std::shared_ptr<const PreparedStep>> entries;
  std::deque<std::uint64_t> insertionOrder;
};

ExpOperatorCache::ExpOperatorCache() : impl_(std::make_unique<Impl>()) {}

ExpOperatorCache& ExpOperatorCache::instance() {
  static ExpOperatorCache cache;
  return cache;
}

std::shared_ptr<const PreparedStep> ExpOperatorCache::lookup(
    std::uint64_t fingerprint) {
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
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    s.entries = impl_->entries.size();
  }
  ensures(s.entries <= kMaxEntries,
          "ExpOperatorCache::stats: entry count above the eviction capacity");
  return s;
}

}  // namespace rltherm::thermal
