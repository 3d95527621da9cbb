#include "predicates/index_cache.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace topkdup::predicates {

namespace {

struct CacheCounters {
  metrics::Counter* hits;
  metrics::Counter* misses;
  metrics::Counter* evictions;

  static const CacheCounters& Get() {
    auto& registry = metrics::Registry::Global();
    static const CacheCounters counters = {
        registry.GetCounter("predicates.index_cache.hits"),
        registry.GetCounter("predicates.index_cache.misses"),
        registry.GetCounter("predicates.index_cache.evictions"),
    };
    return counters;
  }
};

}  // namespace

IndexCache::IndexCache(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

IndexCache::Entry* IndexCache::Find(const PairPredicate& pred,
                                    const std::vector<size_t>& items) {
  for (Entry& entry : entries_) {
    if (entry.pred == &pred && entry.index->items() == items) return &entry;
  }
  return nullptr;
}

void IndexCache::EvictOldest() {
  const auto oldest =
      std::min_element(entries_.begin(), entries_.end(),
                       [](const Entry& a, const Entry& b) {
                         return a.tick < b.tick;
                       });
  entries_.erase(oldest);
  CacheCounters::Get().evictions->Increment();
}

std::shared_ptr<const BlockedIndex> IndexCache::GetOrBuild(
    const PairPredicate& pred, const std::vector<size_t>& items) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* entry = Find(pred, items)) {
    entry->tick = ++tick_;
    CacheCounters::Get().hits->Increment();
    return entry->index;
  }
  CacheCounters::Get().misses->Increment();
  BlockedIndex built(pred, items);
  built.EnableCandidateMemo();
  auto index = std::make_shared<const BlockedIndex>(std::move(built));
  if (entries_.size() >= capacity_) EvictOldest();
  entries_.push_back(Entry{&pred, index, ++tick_});
  return index;
}

size_t IndexCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t IndexCache::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const Entry& entry : entries_) {
    total += entry.index->memory_bytes();
  }
  return total;
}

}  // namespace topkdup::predicates
