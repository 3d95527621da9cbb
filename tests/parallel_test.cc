#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "datagen/citation_gen.h"
#include "dedup/pruned_dedup.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"

namespace topkdup {
namespace {

TEST(ShardLayoutTest, CoversRangeExactlyOnce) {
  const ShardLayout layout = MakeShards(3, 103, 7);
  std::vector<int> seen(103, 0);
  for (size_t s = 0; s < layout.shard_count(); ++s) {
    const auto [b, e] = layout.Shard(s);
    EXPECT_LT(b, e);
    EXPECT_LE(e - b, 7u);
    for (size_t i = b; i < e; ++i) ++seen[i];
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i >= 3 ? 1 : 0) << "index " << i;
  }
}

TEST(ShardLayoutTest, EmptyAndDegenerateRanges) {
  EXPECT_EQ(MakeShards(5, 5, 4).shard_count(), 0u);
  EXPECT_EQ(MakeShards(7, 3, 4).shard_count(), 0u);  // end < begin clamps.
  EXPECT_EQ(MakeShards(0, 10, 0).shard_count(), 10u);  // grain clamps to 1.
}

TEST(ParallelismLevelTest, OverrideAndReset) {
  SetParallelism(3);
  EXPECT_EQ(ParallelismLevel(), 3);
  {
    ScopedParallelism scoped(7);
    EXPECT_EQ(ParallelismLevel(), 7);
    ScopedParallelism noop(0);  // 0 leaves the level unchanged.
    EXPECT_EQ(ParallelismLevel(), 7);
  }
  EXPECT_EQ(ParallelismLevel(), 3);
  SetParallelism(0);
  EXPECT_GE(ParallelismLevel(), 1);
}

// Two threads' scopes overlap: A opens 2, B opens 8 while A's is open, A
// closes first. Each thread must see only its own scope, and both must
// fall back to the process-wide level, not to a snapshot of the other's.
TEST(ParallelismLevelTest, ScopesAreThreadLocal) {
  SetParallelism(3);
  std::latch a_opened(1);
  std::latch b_opened(1);
  std::latch a_closed(1);
  int a_inside = 0;
  int a_after = 0;
  int b_inside = 0;
  int b_after = 0;
  std::thread a([&] {
    {
      ScopedParallelism scoped(2);
      a_opened.count_down();
      b_opened.wait();
      a_inside = ParallelismLevel();
    }
    a_after = ParallelismLevel();
    a_closed.count_down();
  });
  std::thread b([&] {
    a_opened.wait();
    {
      ScopedParallelism scoped(8);
      b_opened.count_down();
      a_closed.wait();
      b_inside = ParallelismLevel();
    }
    b_after = ParallelismLevel();
  });
  a.join();
  b.join();
  EXPECT_EQ(a_inside, 2);
  EXPECT_EQ(a_after, 3);
  EXPECT_EQ(b_inside, 8);
  EXPECT_EQ(b_after, 3);
  EXPECT_EQ(ParallelismLevel(), 3);
  SetParallelism(0);
}

// Bound on every wait in the two tests below, so a pool that runs regions
// one at a time fails them instead of hanging.
constexpr auto kWaitBound = std::chrono::seconds(5);

// Each region's shards wait until both regions have a shard running, which
// only happens if regions launched from different threads overlap.
TEST(ParallelForTest, RegionsFromTwoThreadsRunAtOnce) {
  std::mutex mu;
  std::condition_variable cv;
  bool running[2] = {false, false};
  int timeouts = 0;
  const auto launch = [&](int region) {
    ScopedParallelism scoped(2);
    ParallelFor(0, 2, 1, [&](size_t) {
      std::unique_lock<std::mutex> lock(mu);
      running[region] = true;
      cv.notify_all();
      if (!cv.wait_for(lock, kWaitBound,
                       [&] { return running[0] && running[1]; })) {
        ++timeouts;
      }
    });
  };
  std::thread a(launch, 0);
  std::thread b(launch, 1);
  a.join();
  b.join();
  EXPECT_EQ(timeouts, 0);
}

// Thread A's region blocks in all four shards, holding three pool workers
// (every worker, when this runs before any wider region in this binary).
// Thread B's region must still finish: its launching thread can claim
// every shard alone.
TEST(ParallelForTest, RegionFinishesWhileAnotherHoldsEveryWorker) {
  std::mutex mu;
  std::condition_variable cv;
  int a_running = 0;
  bool a_released = false;
  bool b_finished = false;
  std::thread a([&] {
    ScopedParallelism scoped(4);
    ParallelFor(0, 4, 1, [&](size_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++a_running;
      cv.notify_all();
      cv.wait_for(lock, 6 * kWaitBound, [&] { return a_released; });
    });
  });
  std::unique_lock<std::mutex> lock(mu);
  const bool a_holds_all =
      cv.wait_for(lock, kWaitBound, [&] { return a_running == 4; });
  lock.unlock();

  std::atomic<int> b_shards{0};
  std::thread b([&] {
    ScopedParallelism scoped(2);
    ParallelFor(0, 8, 1, [&](size_t) {
      b_shards.fetch_add(1, std::memory_order_relaxed);
    });
    std::lock_guard<std::mutex> guard(mu);
    b_finished = true;
    cv.notify_all();
  });
  lock.lock();
  const bool b_in_time =
      cv.wait_for(lock, kWaitBound, [&] { return b_finished; });
  a_released = true;
  lock.unlock();
  cv.notify_all();
  a.join();
  b.join();
  EXPECT_TRUE(a_holds_all);
  EXPECT_TRUE(b_in_time);
  EXPECT_EQ(b_shards.load(), 8);
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  for (int threads : {1, 2, 8}) {
    ScopedParallelism scoped(threads);
    constexpr size_t kN = 10007;
    std::vector<std::atomic<int>> visits(kN);
    ParallelFor(0, kN, 64, [&](size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelForTest, NestedCallsRunSerially) {
  ScopedParallelism scoped(4);
  std::atomic<int> total{0};
  ParallelFor(0, 8, 1, [&](size_t) {
    // Nested region: must complete inline without deadlocking the pool.
    ParallelFor(0, 16, 4, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelReduceTest, SumMatchesSerialAtAnyThreadCount) {
  constexpr size_t kN = 54321;
  std::vector<double> values(kN);
  for (size_t i = 0; i < kN; ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  // Shard layout (and so the merge order) ignores the thread count; the
  // float total must be bit-identical, not merely approximately equal.
  std::vector<double> totals;
  for (int threads : {1, 2, 8}) {
    ScopedParallelism scoped(threads);
    totals.push_back(ParallelReduce<double>(
        0, kN, DefaultGrain(kN),
        [&](size_t b, size_t e, double* acc) {
          for (size_t i = b; i < e; ++i) *acc += values[i];
        },
        [](double* total, double shard) { *total += shard; }));
  }
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[0], totals[2]);
}

TEST(ParallelReduceTest, ConcatenationPreservesShardOrder) {
  constexpr size_t kN = 1000;
  for (int threads : {1, 2, 8}) {
    ScopedParallelism scoped(threads);
    const std::vector<size_t> out =
        ParallelReduce<std::vector<size_t>>(
            0, kN, 37,
            [](size_t b, size_t e, std::vector<size_t>* acc) {
              for (size_t i = b; i < e; ++i) acc->push_back(i);
            },
            [](std::vector<size_t>* total, std::vector<size_t>&& shard) {
              total->insert(total->end(), shard.begin(), shard.end());
            });
    ASSERT_EQ(out.size(), kN);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[i], i) << "threads=" << threads;
    }
  }
}

/// End-to-end determinism: the fig2-style PrunedDedup pipeline must
/// produce identical per-level stats (n, m, M, n') and identical group
/// structure at 1, 2, and 8 threads.
TEST(ParallelDeterminismTest, PrunedDedupIdenticalAcrossThreadCounts) {
  datagen::CitationGenOptions gen;
  gen.num_records = 3000;
  gen.num_authors = 600;
  gen.seed = 20090324;
  auto data_or = datagen::GenerateCitations(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();
  auto corpus_or = predicates::Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const predicates::Corpus& corpus = corpus_or.value();

  predicates::CitationFields fields;
  predicates::CitationS1 s1(&corpus, fields, 0.75 * corpus.MaxIdf(0));
  predicates::CitationS2 s2(&corpus, fields);
  predicates::QGramOverlapPredicate n1(&corpus, 0, 0.6);
  predicates::QGramOverlapPredicate n2(&corpus, 0, 0.6, true);

  std::vector<dedup::PrunedDedupResult> results;
  for (int threads : {1, 2, 8}) {
    ScopedParallelism scoped(threads);
    dedup::PrunedDedupOptions options;
    options.k = 10;
    auto result_or =
        dedup::PrunedDedup(data, {{&s1, &n1}, {&s2, &n2}}, options);
    ASSERT_TRUE(result_or.ok()) << "threads=" << threads;
    results.push_back(std::move(result_or).value());
  }

  const dedup::PrunedDedupResult& base = results[0];
  for (size_t r = 1; r < results.size(); ++r) {
    const dedup::PrunedDedupResult& other = results[r];
    ASSERT_EQ(base.levels.size(), other.levels.size());
    for (size_t l = 0; l < base.levels.size(); ++l) {
      EXPECT_EQ(base.levels[l].n_after_collapse,
                other.levels[l].n_after_collapse);
      EXPECT_EQ(base.levels[l].m, other.levels[l].m);
      EXPECT_EQ(base.levels[l].M, other.levels[l].M);  // Bit-identical.
      EXPECT_EQ(base.levels[l].n_after_prune,
                other.levels[l].n_after_prune);
    }
    ASSERT_EQ(base.groups.size(), other.groups.size());
    for (size_t g = 0; g < base.groups.size(); ++g) {
      EXPECT_EQ(base.groups[g].rep, other.groups[g].rep);
      EXPECT_EQ(base.groups[g].weight, other.groups[g].weight);
      EXPECT_EQ(base.groups[g].members, other.groups[g].members);
    }
    ASSERT_EQ(base.upper_bounds.size(), other.upper_bounds.size());
    for (size_t g = 0; g < base.upper_bounds.size(); ++g) {
      EXPECT_EQ(base.upper_bounds[g], other.upper_bounds[g]);
    }
  }
}

}  // namespace
}  // namespace topkdup
