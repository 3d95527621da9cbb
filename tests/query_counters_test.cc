// Per-query counters under concurrency: a query's LevelStats work fields
// and result counters describe that query alone, whatever runs beside it
// (metrics::CounterBlock, delegated to pool workers per region).

#include <gtest/gtest.h>

#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "datagen/citation_gen.h"
#include "dedup/pruned_dedup.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "topk/rank_query.h"
#include "topk/topk_query.h"

namespace topkdup {
namespace {

constexpr int kConcurrentQueries = 4;

class QueryCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::CitationGenOptions gen;
    gen.num_records = 2000;
    gen.num_authors = 400;
    gen.seed = 20090324;
    auto data_or = datagen::GenerateCitations(gen);
    ASSERT_TRUE(data_or.ok());
    data_ = std::move(data_or).value();
    auto corpus_or = predicates::Corpus::Build(&data_, {});
    ASSERT_TRUE(corpus_or.ok());
    corpus_.emplace(std::move(corpus_or).value());
    s1_.emplace(&*corpus_, predicates::CitationFields{},
                0.75 * corpus_->MaxIdf(0));
    s2_.emplace(&*corpus_, predicates::CitationFields{});
    n1_.emplace(&*corpus_, 0, 0.6);
    n2_.emplace(&*corpus_, 0, 0.6, true);
  }

  std::vector<dedup::PredicateLevel> Levels() {
    return {{&*s1_, &*n1_}, {&*s2_, &*n2_}};
  }

  topk::PairScoreFn Scorer() {
    return [this](size_t a, size_t b) {
      const double jw =
          sim::JaroWinkler(text::NormalizeText(data_[a].field(0)),
                           text::NormalizeText(data_[b].field(0)));
      return (jw - 0.85) * 10.0;
    };
  }

  /// Runs `query` on kConcurrentQueries threads released together.
  template <typename Result, typename Query>
  std::vector<std::optional<Result>> RunConcurrently(const Query& query) {
    std::vector<std::optional<Result>> results(kConcurrentQueries);
    std::latch start(kConcurrentQueries);
    std::vector<std::thread> threads;
    for (int i = 0; i < kConcurrentQueries; ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        auto result_or = query();
        if (result_or.ok()) results[i] = std::move(result_or).value();
      });
    }
    for (std::thread& thread : threads) thread.join();
    return results;
  }

  record::Dataset data_;
  std::optional<predicates::Corpus> corpus_;
  std::optional<predicates::CitationS1> s1_;
  std::optional<predicates::CitationS2> s2_;
  std::optional<predicates::QGramOverlapPredicate> n1_;
  std::optional<predicates::QGramOverlapPredicate> n2_;
};

void ExpectSameLevelWork(const std::vector<dedup::LevelStats>& got,
                         const std::vector<dedup::LevelStats>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t l = 0; l < want.size(); ++l) {
    SCOPED_TRACE("level " + std::to_string(l));
    EXPECT_EQ(got[l].n_after_collapse, want[l].n_after_collapse);
    EXPECT_EQ(got[l].m, want[l].m);
    EXPECT_EQ(got[l].M, want[l].M);
    EXPECT_EQ(got[l].n_after_prune, want[l].n_after_prune);
    EXPECT_EQ(got[l].records_collapsed, want[l].records_collapsed);
    EXPECT_EQ(got[l].groups_pruned, want[l].groups_pruned);
    EXPECT_EQ(got[l].cpn_growth_iterations, want[l].cpn_growth_iterations);
    EXPECT_EQ(got[l].cpn_edges_examined, want[l].cpn_edges_examined);
    EXPECT_EQ(got[l].blocking_probes, want[l].blocking_probes);
    EXPECT_EQ(got[l].predicate_evals, want[l].predicate_evals);
    EXPECT_EQ(got[l].postings_scanned, want[l].postings_scanned);
    EXPECT_EQ(got[l].postings_decoded, want[l].postings_decoded);
    EXPECT_EQ(got[l].blocks_decoded, want[l].blocks_decoded);
    EXPECT_EQ(got[l].blocks_skipped, want[l].blocks_skipped);
  }
}

TEST_F(QueryCountersTest, ConcurrentCountQueriesReportTheirSoloCounts) {
  topk::TopKCountOptions options;
  options.k = 10;
  options.r = 3;
  const auto query = [&] {
    return topk::TopKCountQuery(data_, Levels(), Scorer(), options);
  };
  auto solo_or = query();
  ASSERT_TRUE(solo_or.ok()) << solo_or.status().ToString();
  const topk::TopKCountResult& solo = solo_or.value();
  ASSERT_GT(metrics::CounterValue(solo.counters,
                                  "predicates.blocked_index.candidates"),
            0u);
  ASSERT_GT(metrics::CounterValue(solo.counters,
                                  "topk.pair_scores.pairs_enumerated"),
            0u);

  const auto results = RunConcurrently<topk::TopKCountResult>(query);
  for (int i = 0; i < kConcurrentQueries; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_TRUE(results[i].has_value());
    EXPECT_EQ(results[i]->counters, solo.counters);
    ExpectSameLevelWork(results[i]->pruning.levels, solo.pruning.levels);
  }
}

TEST_F(QueryCountersTest, ConcurrentRankQueriesReportTheirSoloCounts) {
  topk::TopKRankOptions options;
  options.k = 10;
  const auto query = [&] {
    return topk::TopKRankQuery(data_, Levels(), options);
  };
  auto solo_or = query();
  ASSERT_TRUE(solo_or.ok()) << solo_or.status().ToString();
  const topk::TopKRankResult& solo = solo_or.value();
  // The whole query: the §7.1 neighbour lists enumerate candidates after
  // the last level's block closed, so the total exceeds the levels' sum.
  uint64_t level_probes = 0;
  for (const dedup::LevelStats& level : solo.pruning.levels) {
    level_probes += level.blocking_probes;
  }
  EXPECT_GT(metrics::CounterValue(solo.counters,
                                  "predicates.blocked_index.candidates"),
            level_probes);

  const auto results = RunConcurrently<topk::TopKRankResult>(query);
  for (int i = 0; i < kConcurrentQueries; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_TRUE(results[i].has_value());
    EXPECT_EQ(results[i]->counters, solo.counters);
    ExpectSameLevelWork(results[i]->pruning.levels, solo.pruning.levels);
  }
}

}  // namespace
}  // namespace topkdup
