#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "dedup/group.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "topk/pair_scoring.h"

namespace topkdup::topk {
namespace {

class PairScoringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = record::Dataset{record::Schema({"name"})};
    auto add = [&](const char* name, double weight) {
      record::Record r;
      r.fields = {name};
      r.weight = weight;
      data_.Add(r);
    };
    add("alpha beta", 2.0);   // 0
    add("alpha gamma", 3.0);  // 1: shares "alpha" with 0.
    add("delta", 5.0);        // 2: isolated.
    auto corpus_or = predicates::Corpus::Build(&data_, {});
    ASSERT_TRUE(corpus_or.ok());
    corpus_.emplace(std::move(corpus_or).value());
    necessary_.emplace(&*corpus_, std::vector<int>{0}, 1);
    groups_ = dedup::MakeSingletonGroups(data_);
  }

  record::Dataset data_;
  std::optional<predicates::Corpus> corpus_;
  std::optional<predicates::CommonWordsPredicate> necessary_;
  std::vector<dedup::Group> groups_;
};

TEST_F(PairScoringTest, OnlyNecessaryTruePairsAreScored) {
  int scorer_calls = 0;
  PairScoreFn scorer = [&](size_t, size_t) {
    ++scorer_calls;
    return 1.5;
  };
  PairScoringOptions options;
  options.default_score = -0.5;
  cluster::PairScores scores =
      BuildGroupPairScores(groups_, *necessary_, scorer, options);
  EXPECT_EQ(scorer_calls, 1);  // Only the alpha pair.
  EXPECT_EQ(scores.stored_pair_count(), 1u);
  EXPECT_DOUBLE_EQ(scores.default_score(), -0.5);
  // Groups are sorted by weight desc: delta(5)=0, alpha gamma(3)=1,
  // alpha beta(2)=2; the stored pair links positions 1 and 2.
  EXPECT_DOUBLE_EQ(scores.Get(1, 2), 1.5);
  EXPECT_DOUBLE_EQ(scores.Get(0, 1), -0.5);
}

/// Citation-like names over a shared vocabulary, so many groups pass the
/// necessary predicate and rows are long enough to span scoring shards.
class PairScoringRowsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = record::Dataset{record::Schema({"name"})};
    const char* first[] = {"ann", "bob", "cy", "dee", "eve", "fay", "gus"};
    const char* last[] = {"smith", "smyth", "jones", "janes", "li", "lee"};
    Rng rng(12);
    for (int i = 0; i < 600; ++i) {
      record::Record r;
      r.fields = {std::string(first[rng.Uniform(7)]) + " " +
                  last[rng.Uniform(6)] + " " +
                  std::to_string(rng.Uniform(40))};
      r.weight = 1.0 + static_cast<double>(rng.Uniform(5));
      data_.Add(r);
    }
    auto corpus_or = predicates::Corpus::Build(&data_, {});
    ASSERT_TRUE(corpus_or.ok());
    corpus_.emplace(std::move(corpus_or).value());
    necessary_.emplace(&*corpus_, std::vector<int>{0}, 1);
    groups_ = dedup::MakeSingletonGroups(data_);
  }

  /// A pure scorer over record ids with positive and negative values.
  static double Score(size_t a, size_t b) {
    return static_cast<double>((a * 31 + b * 17) % 23) / 7.0 - 1.5;
  }

  record::Dataset data_;
  std::optional<predicates::Corpus> corpus_;
  std::optional<predicates::CommonWordsPredicate> necessary_;
  std::vector<dedup::Group> groups_;
};

// Rows come out of a parallel scatter; their order (the order the
// embedding and segment scorer sum in) must not depend on the thread
// count, and the negative-incident sums must be the rows' own.
TEST_F(PairScoringRowsTest, RowsIdenticalAtAnyThreadCount) {
  std::vector<std::vector<std::vector<cluster::PairScores::Neighbor>>> runs;
  for (int threads : {1, 2, 8}) {
    ScopedParallelism parallelism(threads);
    const cluster::PairScores scores =
        BuildGroupPairScores(groups_, *necessary_, &Score);
    // Enough pairs that the build counts and scatters in several shards.
    EXPECT_GT(scores.stored_pair_count(), 40000u);
    std::vector<std::vector<cluster::PairScores::Neighbor>> rows;
    for (size_t i = 0; i < scores.item_count(); ++i) {
      const auto row = scores.Neighbors(i);
      rows.emplace_back(row.begin(), row.end());
      double negative = 0.0;
      for (const auto& [other, s] : row) {
        if (s < 0.0) negative += s;
        EXPECT_EQ(scores.Get(i, other), s);
      }
      EXPECT_EQ(scores.StoredNegativeIncident(i), negative);
    }
    runs.push_back(std::move(rows));
  }
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
}

}  // namespace
}  // namespace topkdup::topk
