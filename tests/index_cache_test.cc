// IndexCache contract: built indexes are shared across consumers with
// exact-key safety and bounded (LRU) growth, their memory is summed for
// /statusz, and the candidate memo of a shared index stays exact when
// several queries fill the same slots at once.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "datagen/citation_gen.h"
#include "predicates/blocked_index.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "predicates/index_cache.h"

namespace topkdup::predicates {
namespace {

struct TestCorpus {
  record::Dataset data;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<QGramOverlapPredicate> pred;
};

TestCorpus MakeCorpus(size_t records, uint64_t seed) {
  TestCorpus out;
  datagen::CitationGenOptions gen;
  gen.num_records = records;
  gen.num_authors = records / 4 + 2;
  gen.seed = seed;
  auto data_or = datagen::GenerateCitations(gen);
  TOPKDUP_CHECK(data_or.ok());
  out.data = std::move(data_or).value();
  auto corpus_or = Corpus::Build(&out.data, {});
  TOPKDUP_CHECK(corpus_or.ok());
  out.corpus = std::make_unique<Corpus>(std::move(corpus_or).value());
  out.pred =
      std::make_unique<QGramOverlapPredicate>(out.corpus.get(), 0, 0.6);
  return out;
}

std::vector<size_t> IdentityItems(size_t n) {
  std::vector<size_t> items(n);
  for (size_t i = 0; i < n; ++i) items[i] = i;
  return items;
}

TEST(IndexCacheTest, GetOrBuildSharesOneMemoizedIndexPerKey) {
  TestCorpus tc = MakeCorpus(120, 34);
  IndexCache cache;
  const std::vector<size_t> items = IdentityItems(tc.data.size());
  EXPECT_EQ(cache.size(), 0u);
  auto first = cache.GetOrBuild(*tc.pred, items);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->candidate_memo_enabled());
  // A repeat resolve returns the same instance, not a rebuild.
  EXPECT_EQ(cache.GetOrBuild(*tc.pred, items).get(), first.get());
  EXPECT_EQ(cache.GetOrBuild(*tc.pred, items).get(), first.get());
  EXPECT_EQ(cache.size(), 1u);
  // A different item set is a different key (exact compare, no aliasing).
  std::vector<size_t> subset(items.begin(), items.begin() + 50);
  auto other = cache.GetOrBuild(*tc.pred, subset);
  EXPECT_NE(other.get(), first.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(IndexCacheTest, LruEvictionKeepsRecentlyUsedEntries) {
  TestCorpus tc = MakeCorpus(90, 35);
  IndexCache cache(/*capacity=*/2);
  const std::vector<size_t> a = IdentityItems(30);
  const std::vector<size_t> b = IdentityItems(60);
  const std::vector<size_t> c = IdentityItems(90);
  const auto built_a = cache.GetOrBuild(*tc.pred, a);
  const auto built_b = cache.GetOrBuild(*tc.pred, b);
  cache.GetOrBuild(*tc.pred, a);  // Touch a: b is now the LRU entry.
  const auto built_c = cache.GetOrBuild(*tc.pred, c);
  EXPECT_EQ(cache.size(), 2u);
  // a and c resolve to their cached instances; b was evicted, so it
  // resolves to a fresh build.
  EXPECT_EQ(cache.GetOrBuild(*tc.pred, a), built_a);
  EXPECT_EQ(cache.GetOrBuild(*tc.pred, c), built_c);
  EXPECT_NE(cache.GetOrBuild(*tc.pred, b), built_b);
}

TEST(IndexCacheTest, TotalBytesSumsTheCachedIndexes) {
  TestCorpus tc = MakeCorpus(120, 36);
  IndexCache cache;
  EXPECT_EQ(cache.TotalBytes(), 0u);
  const auto all = cache.GetOrBuild(*tc.pred, IdentityItems(tc.data.size()));
  const auto half = cache.GetOrBuild(*tc.pred, IdentityItems(60));
  // An index holds at least its item ids and its compressed postings.
  EXPECT_GE(all->memory_bytes(),
            all->item_count() * sizeof(size_t) + all->compressed_bytes());
  EXPECT_GE(half->memory_bytes(),
            half->item_count() * sizeof(size_t) + half->compressed_bytes());
  EXPECT_EQ(cache.TotalBytes(), all->memory_bytes() + half->memory_bytes());
}

TEST(IndexCacheTest, IndexHandleFallsBackToLocalBuildWithoutCache) {
  TestCorpus tc = MakeCorpus(80, 37);
  const std::vector<size_t> items = IdentityItems(tc.data.size());
  IndexHandle local(nullptr, *tc.pred, items);
  EXPECT_FALSE(local.get().candidate_memo_enabled());
  EXPECT_EQ(local->item_count(), items.size());
  IndexCache cache;
  IndexHandle shared(&cache, *tc.pred, items);
  EXPECT_TRUE(shared.get().candidate_memo_enabled());
  EXPECT_EQ(&shared.get(), cache.GetOrBuild(*tc.pred, items).get());
  // Both handles enumerate the same candidate set.
  std::vector<size_t> from_local, from_shared;
  local->ForEachCandidate(3, [&](size_t q) {
    from_local.push_back(q);
    return true;
  });
  shared->ForEachCandidate(3, [&](size_t q) {
    from_shared.push_back(q);
    return true;
  });
  EXPECT_EQ(from_local, from_shared);
}

/// Two serve workers querying one static dataset enumerate the same items
/// of one cached index at once, so memo fills of one slot race. Every
/// consumer must still see exactly what an unmemoized index emits, and
/// once every slot is published a replay decodes nothing.
TEST(IndexCacheTest, RacingMemoFillsMatchTheUnmemoizedIndex) {
  TestCorpus tc = MakeCorpus(600, 38);
  const std::vector<size_t> items = IdentityItems(tc.data.size());
  const size_t n = items.size();
  const BlockedIndex plain(*tc.pred, items);
  std::vector<std::vector<size_t>> expected(n);
  {
    BlockedIndex::QueryScratch scratch;
    for (size_t p = 0; p < n; ++p) {
      plain.ForEachCandidate(p, &scratch, [&](size_t q) {
        expected[p].push_back(q);
        return true;
      });
    }
  }

  IndexCache cache;
  constexpr size_t kThreads = 4;
  std::vector<std::shared_ptr<const BlockedIndex>> resolved(kThreads);
  // seen[t][p]: what thread t's consumer received for item p.
  std::vector<std::vector<std::vector<size_t>>> seen(
      kThreads, std::vector<std::vector<size_t>>(n));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      resolved[t] = cache.GetOrBuild(*tc.pred, items);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Thread t starts at item t, one item ahead of thread t - 1. The
      // consumer yields after every candidate, before the slot is
      // published, so the threads' fills of one slot overlap even when
      // they share a core.
      BlockedIndex::QueryScratch scratch;
      for (size_t step = 0; step < n; ++step) {
        const size_t p = (t + step) % n;
        const bool stop_after_first = p % 2 == 0;
        resolved[t]->ForEachCandidate(p, &scratch, [&](size_t q) {
          seen[t][p].push_back(q);
          std::this_thread::yield();
          return !stop_after_first;
        });
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  size_t nonempty = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(resolved[t], resolved[0]);
    for (size_t p = 0; p < n; ++p) {
      if (p % 2 == 0) {
        const std::vector<size_t> first =
            expected[p].empty() ? std::vector<size_t>{}
                                : std::vector<size_t>{expected[p][0]};
        ASSERT_EQ(seen[t][p], first) << "thread " << t << " item " << p;
      } else {
        ASSERT_EQ(seen[t][p], expected[p]) << "thread " << t << " item " << p;
      }
    }
  }
  for (const std::vector<size_t>& list : expected) {
    if (!list.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, n / 4) << "too few candidates for the race to matter";

  // Every slot was published, early-stopped items included, so a replay
  // of all items decodes no posting and still emits the full lists.
  metrics::Counter* decoded = metrics::Registry::Global().GetCounter(
      "predicates.blocked_index.postings_decoded");
  const uint64_t decoded_before = decoded->Value();
  BlockedIndex::QueryScratch scratch;
  for (size_t p = 0; p < n; ++p) {
    std::vector<size_t> replay;
    resolved[0]->ForEachCandidate(p, &scratch, [&](size_t q) {
      replay.push_back(q);
      return true;
    });
    ASSERT_EQ(replay, expected[p]) << "item " << p;
  }
  EXPECT_EQ(decoded->Value() - decoded_before, 0u);
}

}  // namespace
}  // namespace topkdup::predicates
