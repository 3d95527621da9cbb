#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "cluster/correlation.h"
#include "common/rng.h"
#include "segment/posterior.h"
#include "segment/segment_scorer.h"
#include "segment/topk_dp.h"

namespace topkdup::segment {
namespace {

using cluster::PairScores;

PairScores RandomScores(Rng* rng, size_t n, double density) {
  std::vector<cluster::ScoredPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(density)) {
        pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                         (rng->NextDouble() - 0.45) * 3.0});
      }
    }
  }
  return PairScores(n, -0.1, pairs);
}

std::vector<size_t> Identity(size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  return order;
}

/// Brute-force enumeration of all segmentations via boundary bitmask.
/// Calls fn(spans, score).
template <typename Fn>
void ForEachSegmentation(const SegmentScorer& scorer, Fn fn) {
  const size_t n = scorer.size();
  for (uint32_t mask = 0; mask < (1u << (n - 1)); ++mask) {
    std::vector<Span> spans;
    double total = 0.0;
    size_t start = 0;
    bool valid = true;
    for (size_t i = 0; i < n; ++i) {
      const bool boundary = i == n - 1 || (mask & (1u << i));
      if (boundary) {
        if (i - start + 1 > scorer.band()) {
          valid = false;
          break;
        }
        spans.push_back(Span{start, i});
        total += scorer.Score(start, i);
        start = i + 1;
      }
    }
    if (valid) fn(spans, total);
  }
}

TEST(PartitionFunctionTest, MatchesBruteForce) {
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t n = 3 + rng.Uniform(7);
    PairScores scores = RandomScores(&rng, n, 0.5);
    SegmentScorer scorer(scores, Identity(n), n);
    double brute = 0.0;
    ForEachSegmentation(scorer, [&](const std::vector<Span>&, double score) {
      brute += std::exp(score);
    });
    EXPECT_NEAR(LogPartitionFunction(scorer), std::log(brute), 1e-9)
        << "n=" << n;
  }
}

TEST(PartitionFunctionTest, RespectsBandAndTemperature) {
  Rng rng(37);
  const size_t n = 8;
  PairScores scores = RandomScores(&rng, n, 0.6);
  SegmentScorer scorer(scores, Identity(n), 3);
  double brute = 0.0;
  ForEachSegmentation(scorer, [&](const std::vector<Span>&, double score) {
    brute += std::exp(score / 2.0);
  });
  PosteriorOptions options;
  options.temperature = 2.0;
  EXPECT_NEAR(LogPartitionFunction(scorer, options), std::log(brute), 1e-9);
}

TEST(AnswerMassTest, MatchesBruteForceRestriction) {
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t n = 5 + rng.Uniform(5);
    PairScores scores = RandomScores(&rng, n, 0.5);
    const std::vector<size_t> order = Identity(n);
    std::vector<double> weights(n);
    for (auto& w : weights) w = 1.0 + rng.Uniform(4);
    SegmentScorer scorer(scores, order, n);

    // Take the best K=2 answer from the DP, then verify its mass.
    TopKDpOptions dp_options;
    dp_options.k = 2;
    dp_options.r = 1;
    dp_options.band = n;
    dp_options.max_thresholds = 0;
    auto answers = TopKSegmentation(scorer, order, weights, dp_options);
    ASSERT_TRUE(answers.ok());
    ASSERT_FALSE(answers.value().empty());
    const TopKAnswer& answer = answers.value()[0];

    auto span_weight = [&](const Span& s) {
      double w = 0.0;
      for (size_t p = s.begin; p <= s.end; ++p) w += weights[order[p]];
      return w;
    };
    double brute = 0.0;
    ForEachSegmentation(scorer, [&](const std::vector<Span>& spans,
                                    double score) {
      // Consistent: every answer span present; all other spans within the
      // threshold.
      for (const Span& a : answer.answer) {
        if (std::find(spans.begin(), spans.end(), a) == spans.end()) return;
      }
      for (const Span& s : spans) {
        const bool is_answer = std::find(answer.answer.begin(),
                                         answer.answer.end(),
                                         s) != answer.answer.end();
        if (!is_answer && span_weight(s) > answer.threshold) return;
      }
      brute += std::exp(score);
    });
    ASSERT_GT(brute, 0.0);
    auto mass = LogAnswerMass(scorer, order, weights, answer);
    ASSERT_TRUE(mass.ok());
    EXPECT_NEAR(mass.value(), std::log(brute), 1e-9) << "n=" << n;
  }
}

TEST(AnswerPosteriorTest, ProbabilitiesAreSane) {
  Rng rng(43);
  const size_t n = 9;
  PairScores scores = RandomScores(&rng, n, 0.6);
  const std::vector<size_t> order = Identity(n);
  std::vector<double> weights(n, 1.0);
  // Non-uniform weights so thresholds are meaningful.
  for (size_t i = 0; i < n; ++i) weights[i] = 1.0 + (i % 3);
  SegmentScorer scorer(scores, order, n);
  TopKDpOptions dp_options;
  dp_options.k = 1;
  dp_options.r = 3;
  dp_options.band = n;
  dp_options.max_thresholds = 0;
  auto answers = TopKSegmentation(scorer, order, weights, dp_options);
  ASSERT_TRUE(answers.ok());
  double total = 0.0;
  
  for (const TopKAnswer& answer : answers.value()) {
    auto p = AnswerPosterior(scorer, order, weights, answer);
    ASSERT_TRUE(p.ok());
    EXPECT_GT(p.value(), 0.0);
    EXPECT_LE(p.value(), 1.0);
    total += p.value();
  
  }
  // Distinct answers cannot over-account the probability space by much
  // (they may share segmentations only if one answer's spans are a subset
  // scenario, which the threshold rules out for equal K).
  EXPECT_LE(total, 1.0 + 1e-9);
}

TEST(AnswerMassTest, RejectsBadSpans) {
  PairScores scores(4);
  SegmentScorer scorer(scores, Identity(4), 4);
  std::vector<double> weights(4, 1.0);
  TopKAnswer bad;
  bad.answer = {Span{2, 5}};
  EXPECT_FALSE(LogAnswerMass(scorer, Identity(4), weights, bad).ok());
  TopKAnswer overlapping;
  overlapping.answer = {Span{0, 2}, Span{2, 3}};
  EXPECT_FALSE(
      LogAnswerMass(scorer, Identity(4), weights, overlapping).ok());
}

}  // namespace
}  // namespace topkdup::segment
