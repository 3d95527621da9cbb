#ifndef TOPKDUP_PREDICATES_INDEX_CACHE_H_
#define TOPKDUP_PREDICATES_INDEX_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "predicates/blocked_index.h"
#include "predicates/pair_predicate.h"

namespace topkdup::predicates {

/// Thread-safe LRU cache of built BlockedIndex instances, keyed by
/// (predicate identity, exact item vector). A resident query service keeps
/// one cache per dataset: every pipeline stage that would otherwise
/// rebuild the same index on every request — collapse over the
/// weight-sorted singleton groups, the necessary index over the collapsed
/// groups' representatives that the CPN lower bound and pruning share,
/// and pair scoring — shares one immutable index instead. The first query of a
/// shape builds the entries (the service's calibration query, when it
/// runs); later ones hit them.
/// Cached indexes have their per-item candidate memo enabled
/// (BlockedIndex::EnableCandidateMemo), so repeat enumerations of an item
/// replay its recorded candidate list without decoding a single posting
/// block.
///
/// Keys compare the item vector exactly (no hashing shortcut), so a hit
/// can never serve an index over the wrong item set; a request whose
/// intermediate group set differs (e.g. after a deadline-degraded partial
/// collapse) simply misses and builds a fresh entry, bounded by the LRU
/// capacity.
///
/// One-shot pipelines (the fig benchmarks, tests, ad-hoc queries) pass no
/// cache and keep building query-local indexes; their work counters and
/// results are byte-for-byte what they were before caching existed.
class IndexCache {
 public:
  explicit IndexCache(size_t capacity = 16);

  /// Returns the cached index for (pred, items), building it — with the
  /// candidate memo enabled — on a miss. Builds run under the cache lock:
  /// concurrent requests for the same key wait and then share the one
  /// build instead of duplicating it. Never returns null.
  std::shared_ptr<const BlockedIndex> GetOrBuild(
      const PairPredicate& pred, const std::vector<size_t>& items);

  size_t size() const;

  /// Sum of the cached indexes' memory_bytes() — the index memory a
  /// resident dataset is holding, as reported by /statusz.
  size_t TotalBytes() const;

 private:
  struct Entry {
    const PairPredicate* pred;
    std::shared_ptr<const BlockedIndex> index;  // Keyed by its items().
    uint64_t tick;
  };

  /// Both under mu_.
  Entry* Find(const PairPredicate& pred, const std::vector<size_t>& items);
  void EvictOldest();

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t tick_ = 0;
  std::vector<Entry> entries_;
};

/// Consumer-side adapter: resolves through `cache` when one is supplied
/// (shared, memoized, reused across queries) and otherwise builds a
/// query-local index, exactly as the pipeline stages did before caching.
class IndexHandle {
 public:
  IndexHandle(IndexCache* cache, const PairPredicate& pred,
              const std::vector<size_t>& items) {
    if (cache != nullptr) {
      shared_ = cache->GetOrBuild(pred, items);
    } else {
      local_.emplace(pred, items);
    }
  }

  const BlockedIndex& get() const {
    return shared_ != nullptr ? *shared_ : *local_;
  }
  const BlockedIndex& operator*() const { return get(); }
  const BlockedIndex* operator->() const { return &get(); }

 private:
  std::shared_ptr<const BlockedIndex> shared_;
  std::optional<BlockedIndex> local_;
};

}  // namespace topkdup::predicates

#endif  // TOPKDUP_PREDICATES_INDEX_CACHE_H_
