#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "cluster/agglomerative.h"
#include "cluster/correlation.h"
#include "cluster/hierarchy_dp.h"
#include "common/rng.h"
#include "embed/linear_embedding.h"
#include "segment/segment_scorer.h"
#include "segment/topk_dp.h"

namespace topkdup::cluster {
namespace {

PairScores RandomScores(Rng* rng, size_t n, double density) {
  std::vector<ScoredPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(density)) {
        pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                         (rng->NextDouble() - 0.4) * 3.0});
      }
    }
  }
  return PairScores(n, -0.15, pairs);
}

/// Brute-force the best frontier grouping of a dendrogram by enumerating
/// cut/recurse decisions.
double BruteForceBestFrontier(const PairScores& scores,
                              const std::vector<Merge>& merges) {
  const size_t n = scores.item_count();
  const size_t node_count = n + merges.size();
  std::vector<std::pair<int, int>> children(node_count, {-1, -1});
  std::vector<bool> is_child(node_count, false);
  for (const Merge& m : merges) {
    children[m.result] = {m.left, m.right};
    is_child[m.left] = true;
    is_child[m.right] = true;
  }
  std::vector<std::vector<size_t>> leaves(node_count);
  for (size_t node = 0; node < node_count; ++node) {
    if (node < n) {
      leaves[node] = {node};
    } else {
      leaves[node] = leaves[children[node].first];
      const auto& right_leaves = leaves[children[node].second];
      leaves[node].insert(leaves[node].end(), right_leaves.begin(),
                          right_leaves.end());
    }
  }
  std::function<double(int)> best = [&](int node) -> double {
    const double cut = GroupScore(leaves[node], scores);
    if (node < static_cast<int>(n)) return cut;
    return std::max(cut, best(children[node].first) +
                             best(children[node].second));
  };
  double total = 0.0;
  for (size_t node = 0; node < node_count; ++node) {
    if (!is_child[node]) total += best(static_cast<int>(node));
  }
  return total;
}

TEST(HierarchyDpTest, MatchesBruteForceBestFrontier) {
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 4 + rng.Uniform(8);
    PairScores scores = RandomScores(&rng, n, 0.6);
    auto agg = Agglomerate(scores, Linkage::kAverage, 0.0);
    ASSERT_TRUE(agg.ok());
    auto groupings =
        BestHierarchyGroupings(scores, agg.value().merges, 1);
    ASSERT_TRUE(groupings.ok());
    ASSERT_FALSE(groupings.value().empty());
    const double brute =
        BruteForceBestFrontier(scores, agg.value().merges);
    EXPECT_NEAR(groupings.value()[0].score, brute, 1e-9) << "n=" << n;
    // The reported labels achieve the reported score.
    EXPECT_NEAR(CorrelationScore(groupings.value()[0].labels, scores),
                groupings.value()[0].score, 1e-9);
  }
}

TEST(HierarchyDpTest, RankedListIsDescendingAndDistinct) {
  Rng rng(67);
  PairScores scores = RandomScores(&rng, 9, 0.7);
  auto agg = Agglomerate(scores, Linkage::kAverage, 0.0);
  ASSERT_TRUE(agg.ok());
  auto groupings = BestHierarchyGroupings(scores, agg.value().merges, 5);
  ASSERT_TRUE(groupings.ok());
  ASSERT_GE(groupings.value().size(), 2u);
  std::set<Labels> seen;
  for (size_t i = 0; i < groupings.value().size(); ++i) {
    if (i > 0) {
      EXPECT_GE(groupings.value()[i - 1].score,
                groupings.value()[i].score);
    }
    EXPECT_TRUE(seen.insert(Canonicalize(groupings.value()[i].labels))
                    .second)
        << "duplicate grouping at rank " << i;
  }
}

// The paper's §5.3 claim: segmentations of the hierarchy's leaf order are
// a strict superset of the hierarchy's frontier groupings, so the best
// segmentation never scores below the best frontier grouping.
TEST(HierarchyDpTest, SegmentationGeneralizesHierarchy) {
  Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 5 + rng.Uniform(8);
    PairScores scores = RandomScores(&rng, n, 0.6);
    auto agg = Agglomerate(scores, Linkage::kAverage, 0.0);
    ASSERT_TRUE(agg.ok());
    auto groupings =
        BestHierarchyGroupings(scores, agg.value().merges, 1);
    ASSERT_TRUE(groupings.ok());

    const std::vector<size_t> order =
        DendrogramLeafOrder(agg.value().merges, n);
    segment::SegmentScorer scorer(scores, order, n);
    auto segs = segment::BestSegmentations(scorer, 1);
    ASSERT_TRUE(segs.ok());
    ASSERT_FALSE(segs.value().empty());
    EXPECT_GE(segs.value()[0].score, groupings.value()[0].score - 1e-9)
        << "n=" << n << " trial=" << trial;
  }
}

TEST(HierarchyDpTest, RejectsBadInput) {
  PairScores scores(3);
  EXPECT_FALSE(BestHierarchyGroupings(scores, {}, 0).ok());
  std::vector<Merge> bad = {{0, 1, 2, 0.0}, {0, 2, 4, 0.0}};  // 0 reused.
  EXPECT_FALSE(BestHierarchyGroupings(scores, bad, 1).ok());
  std::vector<Merge> backwards = {{3, 1, 2, 0.0}};  // Child id >= result.
  EXPECT_FALSE(BestHierarchyGroupings(scores, backwards, 1).ok());
}

TEST(HierarchyDpTest, ForestInputsCombine) {
  // Two disjoint pairs, no root merge: the DP must handle the forest.
  const PairScores scores(4, 0.0, {{0, 1, 2.0}, {2, 3, 2.0}});
  std::vector<Merge> merges = {{0, 1, 4, 2.0}, {2, 3, 5, 2.0}};
  auto groupings = BestHierarchyGroupings(scores, merges, 2);
  ASSERT_TRUE(groupings.ok());
  const Labels& best = groupings.value()[0].labels;
  EXPECT_EQ(best[0], best[1]);
  EXPECT_EQ(best[2], best[3]);
  EXPECT_NE(best[0], best[2]);
}

}  // namespace
}  // namespace topkdup::cluster
