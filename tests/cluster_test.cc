#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/agglomerative.h"
#include "cluster/baselines.h"
#include "cluster/correlation.h"
#include "cluster/exact_partition.h"
#include "cluster/pair_scores.h"
#include "common/rng.h"

namespace topkdup::cluster {
namespace {

// Brute-force optimal correlation score by enumerating set partitions.
double BruteForceBest(const PairScores& scores, Labels* best_labels) {
  const size_t n = scores.item_count();
  Labels labels(n, 0);
  double best = -1e300;
  // Enumerate restricted growth strings.
  std::function<void(size_t, int)> rec = [&](size_t i, int max_label) {
    if (i == n) {
      const double s = CorrelationScore(labels, scores);
      if (s > best) {
        best = s;
        if (best_labels != nullptr) *best_labels = labels;
      }
      return;
    }
    for (int l = 0; l <= max_label + 1; ++l) {
      labels[i] = l;
      rec(i + 1, std::max(max_label, l));
    }
  };
  rec(0, -1);
  return best;
}

/// Each pair i < j stored with probability `density`, scored
/// (uniform - shift) * scale.
std::vector<ScoredPair> RandomPairs(Rng* rng, size_t n, double density,
                                    double shift, double scale = 4.0) {
  std::vector<ScoredPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(density)) {
        pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                         (rng->NextDouble() - shift) * scale});
      }
    }
  }
  return pairs;
}

TEST(PairScoresTest, GetHasAndDefault) {
  const PairScores empty(4, -0.5);
  EXPECT_DOUBLE_EQ(empty.Get(0, 1), -0.5);
  EXPECT_EQ(empty.stored_pair_count(), 0u);

  const PairScores s(4, -0.5, std::vector<ScoredPair>{{0, 1, 2.0}});
  EXPECT_DOUBLE_EQ(s.Get(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(s.Get(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.Get(0, 2), -0.5);
  EXPECT_TRUE(s.Has(0, 1));
  EXPECT_TRUE(s.Has(1, 0));
  EXPECT_FALSE(s.Has(0, 2));
  EXPECT_FALSE(s.Has(1, 1));
  EXPECT_FALSE(s.Has(0, 9));
  EXPECT_EQ(s.stored_pair_count(), 1u);
  EXPECT_DOUBLE_EQ(s.Get(2, 2), 0.0);
}

// Get and Has scan one row; a dense oracle checks them on every (i, j),
// stored or not, including the diagonal.
TEST(PairScoresTest, GetAndHasMatchDenseOracle) {
  Rng rng(2024);
  const size_t n = 12;
  const std::vector<ScoredPair> pairs = RandomPairs(&rng, n, 0.4, 0.5);
  const PairScores s(n, -0.25, pairs);
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, -0.25));
  std::vector<std::vector<bool>> stored(n, std::vector<bool>(n, false));
  for (const ScoredPair& p : pairs) {
    dense[p.i][p.j] = dense[p.j][p.i] = p.score;
    stored[p.i][p.j] = stored[p.j][p.i] = true;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(s.Has(i, j), stored[i][j]) << i << "," << j;
      EXPECT_EQ(s.Get(i, j), i == j ? 0.0 : dense[i][j]) << i << "," << j;
    }
  }
}

// The row-order contract: row i lists the pairs touching i in input
// order — list by list, then within each list — and the negative-incident
// sum is accumulated in that order.
TEST(PairScoresTest, RowsListPairsInInputOrder) {
  Rng rng(77);
  const size_t n = 9;
  std::vector<std::vector<ScoredPair>> lists(3);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!rng.Bernoulli(0.6)) continue;
      // Scatter pairs over the lists, written in either orientation.
      const ScoredPair p =
          rng.Bernoulli(0.5)
              ? ScoredPair{static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                           rng.NextDouble() - 0.5}
              : ScoredPair{static_cast<uint32_t>(j), static_cast<uint32_t>(i),
                           rng.NextDouble() - 0.5};
      lists[rng.Uniform(lists.size())].push_back(p);
    }
  }
  for (auto& list : lists) rng.Shuffle(&list);
  const PairScores s(n, -0.1, lists);

  std::vector<std::vector<PairScores::Neighbor>> expected(n);
  size_t total = 0;
  for (const auto& list : lists) {
    for (const ScoredPair& p : list) {
      expected[p.i].emplace_back(p.j, p.score);
      expected[p.j].emplace_back(p.i, p.score);
      ++total;
    }
  }
  EXPECT_EQ(s.stored_pair_count(), total);
  for (size_t i = 0; i < n; ++i) {
    const auto row = s.Neighbors(i);
    EXPECT_EQ(std::vector<PairScores::Neighbor>(row.begin(), row.end()),
              expected[i])
        << "row " << i;
    double negative = 0.0;
    for (const auto& [other, score] : expected[i]) {
      if (score < 0.0) negative += score;
    }
    EXPECT_EQ(s.StoredNegativeIncident(i), negative) << "row " << i;
  }
}

// One list or many, the same pairs in the same order build the same rows.
TEST(PairScoresTest, SplittingTheInputKeepsRows) {
  Rng rng(5);
  const size_t n = 15;
  const std::vector<ScoredPair> pairs = RandomPairs(&rng, n, 0.5, 0.4);
  std::vector<std::vector<ScoredPair>> lists(4);
  for (size_t p = 0; p < pairs.size(); ++p) {
    lists[p * lists.size() / pairs.size()].push_back(pairs[p]);
  }
  const PairScores one(n, 0.0, pairs);
  const PairScores split(n, 0.0, lists);
  for (size_t i = 0; i < n; ++i) {
    const auto a = one.Neighbors(i);
    const auto b = split.Neighbors(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "row " << i;
  }
}

TEST(LabelsTest, CanonicalizeAndGroups) {
  Labels raw = {5, 3, 5, 9};
  Labels canon = Canonicalize(raw);
  EXPECT_EQ(canon, (Labels{0, 1, 0, 2}));
  auto groups = LabelsToGroups(raw);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<size_t>{0, 2}));
  Labels back = GroupsToLabels(groups, 4);
  EXPECT_EQ(back, canon);
}

TEST(CorrelationTest, HandScoredExample) {
  // Items 0,1 positive pair (+2); 0,2 negative pair (-1).
  const PairScores s(3, 0.0, {{0, 1, 2.0}, {0, 2, -1.0}});
  // Partition {0,1},{2}: inside + = 2; crossing negatives: (0,2) counted
  // from both sides: GroupScore({0,1}) = 2 - (-1) = 3; GroupScore({2}) =
  // -(-1) = 1. Total 4.
  EXPECT_DOUBLE_EQ(CorrelationScore(Labels{0, 0, 1}, s), 4.0);
  // Everything together: inside positives only = 2.
  EXPECT_DOUBLE_EQ(CorrelationScore(Labels{0, 0, 0}, s), 2.0);
  // All singletons: crossing negative counted twice = 2.
  EXPECT_DOUBLE_EQ(CorrelationScore(Labels{0, 1, 2}, s), 2.0);
}

TEST(TransitiveClosureTest, PositiveEdgesOnly) {
  const PairScores s(5, 0.0, {{0, 1, 1.0}, {1, 2, 0.5}, {3, 4, -1.0}});
  Labels labels = TransitiveClosurePositive(s);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_NE(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(GreedyPivotTest, RespectsObviousStructure) {
  const PairScores s(4, 0.0, {{0, 1, 5.0}, {2, 3, 5.0}, {0, 2, -5.0}});
  Rng rng(3);
  Labels labels = GreedyPivotBestOf(s, &rng, 5);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(ExactPartitionTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(99);
  for (int trial = 0; trial < 15; ++trial) {
    const size_t n = 3 + rng.Uniform(5);  // 3..7 items.
    const PairScores s(n, 0.0, RandomPairs(&rng, n, 0.7, 0.5));
    auto exact = ExactPartition(s);
    ASSERT_TRUE(exact.ok());
    const double brute = BruteForceBest(s, nullptr);
    EXPECT_NEAR(exact.value().score, brute, 1e-9) << "n=" << n;
    // The labels it returns must actually achieve the reported score.
    EXPECT_NEAR(CorrelationScore(exact.value().labels, s),
                exact.value().score, 1e-9);
  }
}

TEST(ExactPartitionTest, RespectsDefaultScore) {
  // Unstored pairs carry a repulsion of -1; stored positives attract.
  const PairScores s(3, -1.0, {{0, 1, 3.0}});
  auto exact = ExactPartition(s);
  ASSERT_TRUE(exact.ok());
  Labels brute_labels;
  const double brute = BruteForceBest(s, &brute_labels);
  EXPECT_NEAR(exact.value().score, brute, 1e-9);
  // 0,1 together; 2 alone.
  EXPECT_EQ(exact.value().labels[0], exact.value().labels[1]);
  EXPECT_NE(exact.value().labels[0], exact.value().labels[2]);
}

TEST(ExactPartitionTest, RejectsLargeInputs) {
  PairScores s(30);
  EXPECT_FALSE(ExactPartition(s).ok());
}

TEST(ComponentsTest, StoredPairsLinkRegardlessOfSign) {
  const PairScores s(6, 0.0, {{0, 1, 1.0}, {1, 2, -1.0}, {4, 5, 0.5}});
  auto comps = ScoreComponents(s);
  ASSERT_EQ(comps.size(), 3u);  // {0,1,2}, {3}, {4,5}.
  EXPECT_EQ(comps[0].size(), 3u);
  EXPECT_EQ(comps[1].size(), 1u);
  EXPECT_EQ(comps[2].size(), 2u);
}

TEST(AgglomerativeTest, SingleAndAverageLink) {
  // Unstored pairs carry a slight repulsion so the two blocks stay apart
  // under the 0.0 stop threshold.
  const PairScores s(4, -0.1, {{0, 1, 3.0}, {2, 3, 2.0}, {1, 2, -4.0}});
  for (Linkage linkage : {Linkage::kSingle, Linkage::kAverage}) {
    auto result = Agglomerate(s, linkage, 0.0);
    ASSERT_TRUE(result.ok());
    const Labels& labels = result.value().labels;
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_EQ(labels[2], labels[3]);
    EXPECT_NE(labels[0], labels[2]);
    // Full dendrogram always has n-1 merges.
    EXPECT_EQ(result.value().merges.size(), 3u);
  }
}

TEST(AgglomerativeTest, LeafOrderIsPermutation) {
  Rng rng(7);
  const PairScores s(8, 0.0, RandomPairs(&rng, 8, 0.5, 0.25, 2.0));
  auto result = Agglomerate(s, Linkage::kAverage, 0.0);
  ASSERT_TRUE(result.ok());
  auto order = DendrogramLeafOrder(result.value().merges, 8);
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(AgglomerativeTest, RejectsOversizedInput) {
  PairScores s(100);
  EXPECT_FALSE(Agglomerate(s, Linkage::kSingle, 0.0, /*max_items=*/50).ok());
}

TEST(AgglomerativeTest, SizeZeroAndOne) {
  PairScores s0(0);
  auto r0 = Agglomerate(s0, Linkage::kSingle, 0.0);
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(r0.value().labels.empty());
  PairScores s1(1);
  auto r1 = Agglomerate(s1, Linkage::kSingle, 0.0);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().labels, (Labels{0}));
}

// Property: the exact partition never scores below the heuristics.
class ExactDominatesTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactDominatesTest, ExactAtLeastHeuristics) {
  Rng rng(500 + GetParam());
  const size_t n = 4 + rng.Uniform(6);
  const PairScores s(n, 0.0, RandomPairs(&rng, n, 0.6, 0.4, 3.0));
  auto exact = ExactPartition(s);
  ASSERT_TRUE(exact.ok());
  const double tc =
      CorrelationScore(TransitiveClosurePositive(s), s);
  Rng pivot_rng(GetParam());
  const double pivot =
      CorrelationScore(GreedyPivotBestOf(s, &pivot_rng, 3), s);
  EXPECT_GE(exact.value().score, tc - 1e-9);
  EXPECT_GE(exact.value().score, pivot - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactDominatesTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace topkdup::cluster
