// Serialized-index loading contract: Deserialize validates and adopts the
// image with O(1) allocation (no per-token or per-posting work), and the
// IndexCache shares built indexes across consumers with exact-key safety
// and bounded (LRU) growth. The allocation bound is verified for real by
// counting global operator new calls around the decode.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "datagen/citation_gen.h"
#include "predicates/blocked_index.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "predicates/index_cache.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// Counting overrides for the whole test binary; malloc-backed so they
// compose with ASan's allocator interception.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

uint64_t AllocationsDuringDeserialize(const PairPredicate& pred, size_t n,
                                      std::string image,
                                      StatusOr<BlockedIndex>* out) {
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  *out = BlockedIndex::Deserialize(pred, n, std::move(image));
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(IndexIoTest, DeserializeAllocatesO1RegardlessOfIndexSize) {
  TestCorpus small = MakeCorpus(200, 31);
  TestCorpus large = MakeCorpus(1600, 32);
  BlockedIndex small_index(*small.pred, IdentityItems(small.data.size()));
  BlockedIndex large_index(*large.pred, IdentityItems(large.data.size()));
  std::string small_image = small_index.Serialize();
  std::string large_image = large_index.Serialize();
  ASSERT_GT(large_image.size(), small_image.size() * 4)
      << "corpora too close in size for the scaling check to mean much";

  StatusOr<BlockedIndex> small_or = Status::InvalidArgument("unset");
  StatusOr<BlockedIndex> large_or = Status::InvalidArgument("unset");
  const uint64_t small_allocs = AllocationsDuringDeserialize(
      *small.pred, small.data.size(), std::move(small_image), &small_or);
  const uint64_t large_allocs = AllocationsDuringDeserialize(
      *large.pred, large.data.size(), std::move(large_image), &large_or);
  ASSERT_TRUE(small_or.ok()) << small_or.status().ToString();
  ASSERT_TRUE(large_or.ok()) << large_or.status().ToString();

  // O(1): an 8x-larger image may not cost more allocations, and the
  // absolute count stays a small constant (validate + adopt, no per-token
  // structures).
  EXPECT_LE(large_allocs, small_allocs + 4) << "allocation count scales "
                                               "with image size";
  EXPECT_LE(small_allocs, 64u);
  // The adopted index answers queries.
  size_t candidates = 0;
  large_or.value().ForEachCandidate(0, [&](size_t) {
    ++candidates;
    return true;
  });
  (void)candidates;
}

TEST(IndexIoTest, SerializedBytesMatchesImageSize) {
  TestCorpus tc = MakeCorpus(150, 33);
  BlockedIndex index(*tc.pred, IdentityItems(tc.data.size()));
  EXPECT_EQ(index.Serialize().size(), index.serialized_bytes());
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

TEST(IndexCacheTest, PutAdoptsLoadedIndexAndEnablesMemo) {
  TestCorpus tc = MakeCorpus(100, 36);
  const std::vector<size_t> items = IdentityItems(tc.data.size());
  BlockedIndex built(*tc.pred, items);
  auto image_or = BlockedIndex::Deserialize(*tc.pred, tc.data.size(),
                                            built.Serialize());
  ASSERT_TRUE(image_or.ok());
  IndexCache cache;
  auto cached = cache.Put(*tc.pred, items, std::move(image_or).value());
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->candidate_memo_enabled());
  EXPECT_EQ(cache.GetOrBuild(*tc.pred, items).get(), cached.get());
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

}  // namespace
}  // namespace topkdup::predicates
