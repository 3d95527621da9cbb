#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cluster/correlation.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "segment/segment_scorer.h"
#include "segment/topk_dp.h"

namespace topkdup::segment {
namespace {

using cluster::PairScores;

PairScores RandomScores(Rng* rng, size_t n, double density,
                        double default_score = 0.0) {
  std::vector<cluster::ScoredPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(density)) {
        pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                         (rng->NextDouble() - 0.45) * 4.0});
      }
    }
  }
  return PairScores(n, default_score, pairs);
}

std::vector<size_t> Identity(size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  return order;
}

// Brute-force: enumerate all segmentations via boundary bitmasks.
struct BruteResult {
  double best = -1e300;
  std::vector<double> all_scores;
};

double SegScoreDirect(const PairScores& scores,
                      const std::vector<size_t>& order, size_t i, size_t j) {
  std::vector<size_t> group;
  for (size_t p = i; p <= j; ++p) group.push_back(order[p]);
  return cluster::GroupScore(group, scores);
}

BruteResult BruteForceSegmentations(const PairScores& scores,
                                    const std::vector<size_t>& order,
                                    size_t band) {
  const size_t n = order.size();
  BruteResult result;
  for (uint32_t mask = 0; mask < (1u << (n - 1)); ++mask) {
    double total = 0.0;
    size_t start = 0;
    bool valid = true;
    for (size_t i = 0; i < n; ++i) {
      const bool boundary = i == n - 1 || (mask & (1u << i));
      if (boundary) {
        if (i - start + 1 > band) {
          valid = false;
          break;
        }
        total += SegScoreDirect(scores, order, start, i);
        start = i + 1;
      }
    }
    if (!valid) continue;
    result.all_scores.push_back(total);
    result.best = std::max(result.best, total);
  }
  std::sort(result.all_scores.rbegin(), result.all_scores.rend());
  return result;
}

TEST(SegmentScorerTest, MatchesDirectGroupScore) {
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 3 + rng.Uniform(8);
    const double default_score = rng.Bernoulli(0.5) ? 0.0 : -0.3;
    PairScores scores = RandomScores(&rng, n, 0.5, default_score);
    std::vector<size_t> order = Identity(n);
    rng.Shuffle(&order);
    SegmentScorer scorer(scores, order, /*band=*/n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i; j < n; ++j) {
        EXPECT_NEAR(scorer.Score(i, j),
                    SegScoreDirect(scores, order, i, j), 1e-9)
            << "span [" << i << "," << j << "] trial " << trial;
      }
    }
  }
}

TEST(BestSegmentationsTest, Top1MatchesBruteForce) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 3 + rng.Uniform(7);
    PairScores scores = RandomScores(&rng, n, 0.6);
    const std::vector<size_t> order = Identity(n);
    SegmentScorer scorer(scores, order, n);
    auto segs = BestSegmentations(scorer, 1);
    ASSERT_TRUE(segs.ok());
    ASSERT_FALSE(segs.value().empty());
    BruteResult brute = BruteForceSegmentations(scores, order, n);
    EXPECT_NEAR(segs.value()[0].score, brute.best, 1e-9) << "n=" << n;
  }
}

TEST(BestSegmentationsTest, TopRMatchesBruteForceRanking) {
  Rng rng(11);
  const size_t n = 7;
  PairScores scores = RandomScores(&rng, n, 0.7);
  const std::vector<size_t> order = Identity(n);
  SegmentScorer scorer(scores, order, n);
  const int r = 5;
  auto segs = BestSegmentations(scorer, r);
  ASSERT_TRUE(segs.ok());
  BruteResult brute = BruteForceSegmentations(scores, order, n);
  ASSERT_GE(segs.value().size(), static_cast<size_t>(r));
  for (int i = 0; i < r; ++i) {
    EXPECT_NEAR(segs.value()[i].score, brute.all_scores[i], 1e-9)
        << "rank " << i;
  }
}

// Ranks up to the 255 limit: every returned segmentation's spans must
// tile the positions and add up to its reported score.
TEST(BestSegmentationsTest, LargeRSpansAddUpToScores) {
  Rng rng(300);
  const size_t n = 12;
  PairScores scores = RandomScores(&rng, n, 0.6);
  const std::vector<size_t> order = Identity(n);
  SegmentScorer scorer(scores, order, n);
  auto segs = BestSegmentations(scorer, 255);
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.value().size(), 255u);
  for (const Segmentation& seg : segs.value()) {
    double total = 0.0;
    size_t covered = 0;
    for (const Span& span : seg.spans) {
      EXPECT_EQ(span.begin, covered);
      covered = span.end + 1;
      total += scorer.Score(span.begin, span.end);
    }
    EXPECT_EQ(covered, n);
    EXPECT_NEAR(total, seg.score, 1e-9);
  }
  EXPECT_FALSE(BestSegmentations(scorer, 256).ok());
  EXPECT_FALSE(BestSegmentations(scorer, 0).ok());
}

TEST(BestSegmentationsTest, RespectsBand) {
  Rng rng(13);
  const size_t n = 8;
  PairScores scores = RandomScores(&rng, n, 0.6);
  const std::vector<size_t> order = Identity(n);
  const size_t band = 3;
  SegmentScorer scorer(scores, order, band);
  auto segs = BestSegmentations(scorer, 1);
  ASSERT_TRUE(segs.ok());
  ASSERT_FALSE(segs.value().empty());
  for (const Span& span : segs.value()[0].spans) {
    EXPECT_LE(span.end - span.begin + 1, band);
  }
  BruteResult brute = BruteForceSegmentations(scores, order, band);
  EXPECT_NEAR(segs.value()[0].score, brute.best, 1e-9);
}

TEST(SpansToLabelsTest, MapsThroughOrder) {
  std::vector<size_t> order = {2, 0, 1};
  std::vector<Span> spans = {{0, 1}, {2, 2}};
  cluster::Labels labels = SpansToLabels(spans, order);
  EXPECT_EQ(labels[2], 0);  // Position 0.
  EXPECT_EQ(labels[0], 0);  // Position 1.
  EXPECT_EQ(labels[1], 1);  // Position 2.
}

TEST(TopKSegmentationTest, AnswersAreKHeaviestSegments) {
  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t n = 5 + rng.Uniform(6);
    PairScores scores = RandomScores(&rng, n, 0.5);
    const std::vector<size_t> order = Identity(n);
    std::vector<double> weights(n);
    for (auto& w : weights) w = 1.0 + rng.Uniform(5);
    SegmentScorer scorer(scores, order, n);
    TopKDpOptions options;
    options.k = 2;
    options.r = 3;
    options.band = n;
    options.max_thresholds = 0;  // Exact threshold set.
    auto answers = TopKSegmentation(scorer, order, weights, options);
    ASSERT_TRUE(answers.ok());
    ASSERT_FALSE(answers.value().empty());
    auto span_weight = [&](const Span& s) {
      double w = 0.0;
      for (size_t p = s.begin; p <= s.end; ++p) w += weights[order[p]];
      return w;
    };
    for (const TopKAnswer& ans : answers.value()) {
      ASSERT_EQ(ans.answer.size(), 2u);
      // Every answer segment strictly outweighs every non-answer segment.
      double min_answer = 1e300;
      for (const Span& s : ans.answer) {
        min_answer = std::min(min_answer, span_weight(s));
      }
      for (const Span& s : ans.segmentation) {
        const bool is_answer =
            std::find(ans.answer.begin(), ans.answer.end(), s) !=
            ans.answer.end();
        if (!is_answer) {
          EXPECT_LT(span_weight(s), min_answer);
        }
      }
      // Segmentation covers all positions contiguously.
      size_t covered = 0;
      for (const Span& s : ans.segmentation) {
        EXPECT_EQ(s.begin, covered);
        covered = s.end + 1;
      }
      EXPECT_EQ(covered, n);
    }
    // Scores are sorted descending.
    for (size_t i = 1; i < answers.value().size(); ++i) {
      EXPECT_GE(answers.value()[i - 1].score, answers.value()[i].score);
    }
  }
}

TEST(TopKSegmentationTest, Top1IsBestAmongQualifyingBruteForce) {
  // Uniform weights: with all weights 1, a "qualifying" segmentation for
  // K=1 has a unique strictly longest segment.
  Rng rng(23);
  const size_t n = 7;
  PairScores scores = RandomScores(&rng, n, 0.6);
  const std::vector<size_t> order = Identity(n);
  std::vector<double> weights(n, 1.0);
  SegmentScorer scorer(scores, order, n);
  TopKDpOptions options;
  options.k = 1;
  options.r = 1;
  options.band = n;
  options.max_thresholds = 0;
  auto answers = TopKSegmentation(scorer, order, weights, options);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers.value().empty());

  // Brute force over segmentations with a unique longest segment.
  double best = -1e300;
  for (uint32_t mask = 0; mask < (1u << (n - 1)); ++mask) {
    double total = 0.0;
    std::vector<size_t> lengths;
    size_t start = 0;
    for (size_t i = 0; i < n; ++i) {
      const bool boundary = i == n - 1 || (mask & (1u << i));
      if (boundary) {
        total += SegScoreDirect(scores, order, start, i);
        lengths.push_back(i - start + 1);
        start = i + 1;
      }
    }
    std::sort(lengths.rbegin(), lengths.rend());
    if (lengths.size() >= 2 && lengths[0] == lengths[1]) continue;
    best = std::max(best, total);
  }
  EXPECT_NEAR(answers.value()[0].score, best, 1e-9);
}

// Direct (non-incremental) computation of the min-pair objective.
double MinPairScoreDirect(const PairScores& scores,
                          const std::vector<size_t>& order, size_t i,
                          size_t j) {
  // Crossing part equals the correlation objective's crossing part:
  // direct = GroupScore minus its inside-positive part.
  std::vector<size_t> group;
  for (size_t p = i; p <= j; ++p) group.push_back(order[p]);
  double inside_pos = 0.0;
  double min_pair = std::numeric_limits<double>::infinity();
  bool any_pair = false;
  for (size_t a = 0; a < group.size(); ++a) {
    for (size_t b = a + 1; b < group.size(); ++b) {
      any_pair = true;
      const double p = scores.Get(group[a], group[b]);
      min_pair = std::min(min_pair, p);
      if (p > 0.0) inside_pos += p;
    }
  }
  const double crossing_only =
      cluster::GroupScore(group, scores) - inside_pos;
  return crossing_only + (any_pair ? min_pair : 0.0);
}

TEST(SegmentScorerTest, MinPairObjectiveMatchesDirect) {
  Rng rng(51);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 3 + rng.Uniform(7);
    const double default_score = rng.Bernoulli(0.5) ? -0.2 : 0.0;
    PairScores scores = RandomScores(&rng, n, 0.5, default_score);
    std::vector<size_t> order = Identity(n);
    rng.Shuffle(&order);
    SegmentScorer scorer(scores, order, n,
                         SegmentScorer::Objective::kMinPair);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i; j < n; ++j) {
        EXPECT_NEAR(scorer.Score(i, j),
                    MinPairScoreDirect(scores, order, i, j), 1e-9)
            << "span [" << i << "," << j << "] trial " << trial;
      }
    }
  }
}

TEST(SegmentScorerTest, MinPairPenalizesWeakLink) {
  // Chain 0-1-2 where 0-1 is strong, 1-2 weak-positive, 0-2 negative:
  // under kSumPositive the triple nets +; under kMinPair the 0-2 edge
  // caps the whole segment.
  const PairScores s(3, 0.0, {{0, 1, 5.0}, {1, 2, 1.0}, {0, 2, -2.0}});
  std::vector<size_t> order = {0, 1, 2};
  SegmentScorer sum_scorer(s, order, 3);
  SegmentScorer min_scorer(s, order, 3,
                           SegmentScorer::Objective::kMinPair);
  EXPECT_GT(sum_scorer.Score(0, 2), 0.0);
  EXPECT_LT(min_scorer.Score(0, 2), 0.0);
  // Two-item spans agree on the pair they contain.
  EXPECT_DOUBLE_EQ(min_scorer.Score(0, 1) - min_scorer.Score(0, 1), 0.0);
}

// Thresholds fan out over the pool; the merged answers (scores,
// thresholds, spans) must not depend on the thread count.
TEST(TopKSegmentationTest, IdenticalAtAnyThreadCount) {
  Rng rng(41);
  const size_t n = 1200;
  std::vector<cluster::ScoredPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 1; d <= 4 && i + d < n; ++d) {
      pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i + d),
                       (rng.NextDouble() - 0.3) * 2.0});
    }
  }
  const PairScores scores(n, -0.05, pairs);
  const std::vector<size_t> order = Identity(n);
  std::vector<double> weights(n);
  for (double& w : weights) w = 1.0 + static_cast<double>(rng.Uniform(20));
  const SegmentScorer scorer(scores, order, 16);
  TopKDpOptions options;
  options.k = 2;
  options.r = 6;
  options.band = 16;

  metrics::Counter* regions =
      metrics::Registry::Global().GetCounter("parallel.regions");
  std::vector<std::vector<TopKAnswer>> runs;
  for (int threads : {1, 2, 8}) {
    ScopedParallelism parallelism(threads);
    const uint64_t regions_before = regions->Value();
    auto answers = TopKSegmentation(scorer, order, weights, options);
    ASSERT_TRUE(answers.ok());
    runs.push_back(std::move(answers).value());
    if (threads > 1) {
      EXPECT_GT(regions->Value(), regions_before) << "no fan-out";
    }
  }
  ASSERT_EQ(runs[0].size(), 6u);
  for (size_t t = 1; t < runs.size(); ++t) {
    ASSERT_EQ(runs[t].size(), runs[0].size());
    for (size_t a = 0; a < runs[0].size(); ++a) {
      EXPECT_EQ(runs[t][a].score, runs[0][a].score);
      EXPECT_EQ(runs[t][a].threshold, runs[0][a].threshold);
      EXPECT_EQ(runs[t][a].segmentation, runs[0][a].segmentation);
      EXPECT_EQ(runs[t][a].answer, runs[0][a].answer);
    }
  }
}

TEST(TopKSegmentationTest, ErrorsOnBadArguments) {
  PairScores scores(3);
  const std::vector<size_t> order = Identity(3);
  std::vector<double> weights(3, 1.0);
  SegmentScorer scorer(scores, order, 3);
  TopKDpOptions options;
  options.k = 0;
  EXPECT_FALSE(TopKSegmentation(scorer, order, weights, options).ok());
  options.k = 5;  // More answers than positions.
  EXPECT_FALSE(TopKSegmentation(scorer, order, weights, options).ok());
  options.k = 1;
  options.r = 0;
  EXPECT_FALSE(TopKSegmentation(scorer, order, weights, options).ok());
  options.r = 256;
  EXPECT_FALSE(TopKSegmentation(scorer, order, weights, options).ok());
  options.r = 255;
  EXPECT_TRUE(TopKSegmentation(scorer, order, weights, options).ok());
}

}  // namespace
}  // namespace topkdup::segment
