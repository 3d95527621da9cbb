// Micro benchmark: scaling of the segmentation machinery — segment-score
// precomputation and the two DPs (unconstrained top-R and the
// threshold-parameterized AnsR TopK DP) in n, K, R and band.
#include <benchmark/benchmark.h>

#include <numeric>

#include "cluster/pair_scores.h"
#include "common/rng.h"
#include "segment/segment_scorer.h"
#include "segment/topk_dp.h"

namespace topkdup {
namespace {

cluster::PairScores ChainScores(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<cluster::ScoredPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 1; d <= 4 && i + d < n; ++d) {
      pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i + d),
                       (rng.NextDouble() - 0.3) * 2.0});
    }
  }
  return cluster::PairScores(n, 0.0, pairs);
}

void BM_SegmentScorerBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t band = static_cast<size_t>(state.range(1));
  const cluster::PairScores s = ChainScores(n, 5);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  for (auto _ : state) {
    segment::SegmentScorer scorer(s, order, band);
    benchmark::DoNotOptimize(scorer.Score(0, band - 1));
  }
}
BENCHMARK(BM_SegmentScorerBuild)
    ->Args({512, 16})
    ->Args({512, 64})
    ->Args({4096, 16})
    ->Args({4096, 64});

void BM_BestSegmentations(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  const cluster::PairScores s = ChainScores(n, 6);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  segment::SegmentScorer scorer(s, order, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(segment::BestSegmentations(scorer, r));
  }
}
BENCHMARK(BM_BestSegmentations)
    ->Args({512, 1})
    ->Args({512, 10})
    ->Args({4096, 1})
    ->Args({4096, 10});

void BM_TopKSegmentation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const cluster::PairScores s = ChainScores(n, 7);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<double> weights(n);
  Rng rng(8);
  for (auto& w : weights) w = 1.0 + rng.Uniform(20);
  segment::SegmentScorer scorer(s, order, 16);
  segment::TopKDpOptions options;
  options.k = k;
  options.r = 3;
  options.band = 16;
  options.max_thresholds = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        segment::TopKSegmentation(scorer, order, weights, options));
  }
}
BENCHMARK(BM_TopKSegmentation)
    ->Args({256, 1})
    ->Args({256, 10})
    ->Args({1024, 10});

}  // namespace
}  // namespace topkdup

BENCHMARK_MAIN();
