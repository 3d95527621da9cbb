#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "embed/linear_embedding.h"

namespace topkdup::embed {
namespace {

using cluster::PairScores;
using cluster::ScoredPair;

/// Reference for GreedyEmbedding: the Eq.-3 loop evaluating alpha^d with
/// std::pow at every use, with the same tie-breaks and explain picks.
std::vector<size_t> ReferenceGreedyEmbedding(
    const PairScores& scores, const std::vector<double>& weights,
    double alpha, obs::ExplainRecorder* recorder) {
  const size_t n = scores.item_count();
  std::vector<size_t> order;
  if (n == 0) return order;
  auto weight_of = [&](size_t k) {
    return weights.empty() ? 0.0 : weights[k];
  };
  std::vector<double> value(n, 0.0);
  std::vector<size_t> stamp(n, 0);
  std::vector<bool> placed(n, false);
  auto pick_seed = [&]() {
    size_t best = n;
    for (size_t k = 0; k < n; ++k) {
      if (placed[k]) continue;
      if (best == n || weight_of(k) > weight_of(best) ||
          (weight_of(k) == weight_of(best) && k < best)) {
        best = k;
      }
    }
    return best;
  };
  size_t regions = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t chosen = n;
    const bool record_pick = recorder != nullptr && recorder->SampleKey(i);
    double best_affinity = 0.0;
    size_t runner_up = n;
    double runner_up_affinity = 0.0;
    if (!order.empty()) {
      for (size_t k = 0; k < n; ++k) {
        if (placed[k]) continue;
        const double aged =
            value[k] * std::pow(alpha, static_cast<double>(i - stamp[k]));
        if (aged > best_affinity ||
            (aged == best_affinity && aged > 0.0 && chosen != n &&
             weight_of(k) > weight_of(chosen))) {
          if (record_pick && chosen != n) {
            runner_up = chosen;
            runner_up_affinity = best_affinity;
          }
          best_affinity = aged;
          chosen = k;
        } else if (record_pick && aged > runner_up_affinity && k != chosen) {
          runner_up = k;
          runner_up_affinity = aged;
        }
      }
    }
    const bool new_region = chosen == n;
    if (new_region) {
      chosen = pick_seed();
      ++regions;
    }
    if (record_pick) {
      recorder->RecordEmbeddingPick({i, chosen,
                                     new_region ? 0.0 : best_affinity,
                                     runner_up, runner_up_affinity,
                                     new_region});
    }
    placed[chosen] = true;
    order.push_back(chosen);
    for (const auto& [other, s] : scores.Neighbors(chosen)) {
      if (placed[other]) continue;
      value[other] *=
          std::pow(alpha, static_cast<double>(i + 1 - stamp[other]));
      stamp[other] = i + 1;
      value[other] += s;
    }
  }
  if (recorder != nullptr) {
    recorder->RecordEmbeddingSummary(n, alpha, regions);
  }
  return order;
}

/// Pair scores drawn from a few values (so aged affinities tie), over
/// `blocks` disconnected blocks (so the embedding restarts regions).
PairScores TiedBlockScores(Rng* rng, size_t n, size_t blocks,
                           double density) {
  const double values[] = {1.0, 1.0, 2.0, 0.5, -1.0};
  std::vector<ScoredPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (i * blocks / n != j * blocks / n || !rng->Bernoulli(density)) {
        continue;
      }
      pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                       values[rng->Uniform(5)]});
    }
  }
  rng->Shuffle(&pairs);
  return PairScores(n, -0.1, pairs);
}

TEST(GreedyEmbeddingTest, MatchesPowReferenceIncludingExplainPicks) {
  Rng rng(2009);
  // alpha = 1e-3 underflows alpha^d to 0 past d ~ 108, inside n = 160.
  for (double alpha : {1.0, 0.5, 1e-3}) {
    for (int trial = 0; trial < 6; ++trial) {
      const size_t n = trial < 3 ? 40 : 160;
      const size_t blocks = 1 + trial % 3;
      const PairScores scores = TiedBlockScores(&rng, n, blocks, 0.15);
      std::vector<double> weights(n);
      for (double& w : weights) w = 1.0 + static_cast<double>(rng.Uniform(2));
      for (const bool weighted : {false, true}) {
        const std::vector<double> w =
            weighted ? weights : std::vector<double>{};
        obs::ExplainRecorder want_recorder;
        obs::ExplainRecorder got_recorder;
        const std::vector<size_t> want =
            ReferenceGreedyEmbedding(scores, w, alpha, &want_recorder);
        GreedyEmbeddingOptions options;
        options.alpha = alpha;
        options.recorder = &got_recorder;
        const std::vector<size_t> got = GreedyEmbedding(scores, w, options);
        EXPECT_EQ(got, want) << "alpha " << alpha << " trial " << trial;
        EXPECT_EQ(got_recorder.Finish().ToJson(),
                  want_recorder.Finish().ToJson())
            << "alpha " << alpha << " trial " << trial;
      }
    }
  }
}

bool IsPermutation(const std::vector<size_t>& order, size_t n) {
  if (order.size() != n) return false;
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < n; ++i) {
    if (sorted[i] != i) return false;
  }
  return true;
}

size_t PositionOf(const std::vector<size_t>& order, size_t item) {
  return std::find(order.begin(), order.end(), item) - order.begin();
}

TEST(GreedyEmbeddingTest, ReturnsPermutation) {
  const PairScores s(6, 0.0, {{0, 3, 2.0}, {1, 4, 1.0}});
  auto order = GreedyEmbedding(s);
  EXPECT_TRUE(IsPermutation(order, 6));
}

TEST(GreedyEmbeddingTest, SimilarItemsAdjacent) {
  // Two tight blocks {0,1,2} and {3,4,5}, repulsion between them.
  std::vector<ScoredPair> pairs;
  for (uint32_t block : {0u, 3u}) {
    for (uint32_t i = block; i < block + 3; ++i) {
      for (uint32_t j = i + 1; j < block + 3; ++j) pairs.push_back({i, j, 3.0});
    }
  }
  pairs.push_back({2, 3, -2.0});
  const PairScores s(6, 0.0, pairs);
  auto order = GreedyEmbedding(s);
  ASSERT_TRUE(IsPermutation(order, 6));
  // Each block must occupy contiguous positions.
  for (size_t block : {size_t{0}, size_t{3}}) {
    std::vector<size_t> positions;
    for (size_t i = block; i < block + 3; ++i) {
      positions.push_back(PositionOf(order, i));
    }
    std::sort(positions.begin(), positions.end());
    EXPECT_EQ(positions[2] - positions[0], 2u)
        << "block at " << block << " not contiguous";
  }
}

TEST(GreedyEmbeddingTest, EmptyAndSingle) {
  PairScores s0(0);
  EXPECT_TRUE(GreedyEmbedding(s0).empty());
  PairScores s1(1);
  EXPECT_EQ(GreedyEmbedding(s1), (std::vector<size_t>{0}));
}

TEST(GreedyEmbeddingTest, SeedsByWeightWhenDisconnected) {
  PairScores s(3);  // No pairs at all.
  std::vector<double> weights = {1.0, 9.0, 4.0};
  auto order = GreedyEmbedding(s, weights);
  EXPECT_EQ(order[0], 1u);  // Heaviest first.
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(ArrangementCostTest, AdjacentBeatsSpread) {
  const PairScores s(4, 0.0, {{0, 1, 5.0}});
  const double adjacent = ArrangementCost({0, 1, 2, 3}, s);
  const double spread = ArrangementCost({0, 2, 3, 1}, s);
  EXPECT_LT(adjacent, spread);
  EXPECT_DOUBLE_EQ(adjacent, 5.0);
  EXPECT_DOUBLE_EQ(spread, 15.0);
}

TEST(GreedyEmbeddingTest, BeatsRandomOrderOnBlockData) {
  Rng rng(77);
  const size_t n = 30;
  // Ten blocks of three with strong internal similarity.
  std::vector<ScoredPair> pairs;
  for (uint32_t b = 0; b < n; b += 3) {
    pairs.push_back({b, b + 1, 4.0});
    pairs.push_back({b + 1, b + 2, 4.0});
    pairs.push_back({b, b + 2, 4.0});
  }
  const PairScores s(n, 0.0, pairs);
  auto greedy = GreedyEmbedding(s);
  std::vector<size_t> random_order(n);
  std::iota(random_order.begin(), random_order.end(), size_t{0});
  rng.Shuffle(&random_order);
  EXPECT_LE(ArrangementCost(greedy, s), ArrangementCost(random_order, s));
}

TEST(SpectralEmbeddingTest, ReturnsPermutationAndSeparatesBlocks) {
  std::vector<ScoredPair> pairs;
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = i + 1; j < 4; ++j) pairs.push_back({i, j, 2.0});
  }
  for (uint32_t i = 4; i < 8; ++i) {
    for (uint32_t j = i + 1; j < 8; ++j) pairs.push_back({i, j, 2.0});
  }
  pairs.push_back({3, 4, 0.1});  // Weak bridge keeps the graph connected.
  const PairScores s(8, 0.0, pairs);
  auto order = SpectralEmbedding(s);
  ASSERT_TRUE(IsPermutation(order, 8));
  // The Fiedler vector must place one block wholly before the other.
  std::vector<size_t> pos(8);
  for (size_t p = 0; p < 8; ++p) pos[order[p]] = p;
  std::vector<size_t> block0 = {pos[0], pos[1], pos[2], pos[3]};
  std::sort(block0.begin(), block0.end());
  const bool block0_first = block0 == std::vector<size_t>{0, 1, 2, 3};
  const bool block0_last = block0 == std::vector<size_t>{4, 5, 6, 7};
  EXPECT_TRUE(block0_first || block0_last);
}

TEST(SpectralEmbeddingTest, TinyInputs) {
  PairScores s(2);
  auto order = SpectralEmbedding(s);
  EXPECT_TRUE(IsPermutation(order, 2));
}

TEST(HierarchyEmbeddingTest, PermutationAndBlockContiguity) {
  std::vector<ScoredPair> pairs;
  for (uint32_t block : {0u, 3u, 6u}) {
    for (uint32_t i = block; i < block + 3; ++i) {
      for (uint32_t j = i + 1; j < block + 3; ++j) pairs.push_back({i, j, 2.0});
    }
  }
  const PairScores s(9, -0.1, pairs);
  auto order = HierarchyEmbedding(s);
  ASSERT_TRUE(IsPermutation(order, 9));
  for (size_t block : {size_t{0}, size_t{3}, size_t{6}}) {
    std::vector<size_t> positions;
    for (size_t i = block; i < block + 3; ++i) {
      positions.push_back(PositionOf(order, i));
    }
    std::sort(positions.begin(), positions.end());
    EXPECT_EQ(positions[2] - positions[0], 2u);
  }
}

TEST(HierarchyEmbeddingTest, FallsBackWhenTooLarge) {
  const PairScores s(32, 0.0, {{0, 1, 1.0}});
  auto order = HierarchyEmbedding(s, /*max_items=*/8);
  EXPECT_TRUE(IsPermutation(order, 32));  // Greedy fallback still valid.
}

}  // namespace
}  // namespace topkdup::embed
