// Micro benchmark + ablation: greedy vs spectral linear embedding — wall
// time and the linear-arrangement objective each achieves on clustered
// similarity graphs (DESIGN.md §5 design-choice bench).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <set>
#include <utility>

#include "cluster/pair_scores.h"
#include "common/rng.h"
#include "embed/linear_embedding.h"

namespace topkdup {
namespace {

cluster::PairScores ClusteredScores(size_t n, size_t cluster_size,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<cluster::ScoredPair> pairs;
  std::set<std::pair<size_t, size_t>> stored;
  auto add = [&](size_t i, size_t j, double score) {
    pairs.push_back(
        {static_cast<uint32_t>(i), static_cast<uint32_t>(j), score});
    stored.emplace(std::min(i, j), std::max(i, j));
  };
  for (size_t base = 0; base + cluster_size <= n; base += cluster_size) {
    for (size_t i = base; i < base + cluster_size; ++i) {
      for (size_t j = i + 1; j < base + cluster_size; ++j) {
        if (rng.Bernoulli(0.7)) add(i, j, 1.0 + rng.NextDouble());
      }
    }
  }
  // Sparse cross-cluster noise.
  for (size_t e = 0; e < n; ++e) {
    const size_t i = rng.Uniform(n);
    const size_t j = rng.Uniform(n);
    if (i != j && stored.count({std::min(i, j), std::max(i, j)}) == 0) {
      add(i, j, -rng.NextDouble());
    }
  }
  return cluster::PairScores(n, 0.0, pairs);
}

void BM_GreedyEmbedding(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const cluster::PairScores s = ClusteredScores(n, 4, 3);
  double cost = 0;
  for (auto _ : state) {
    auto order = embed::GreedyEmbedding(s);
    cost = embed::ArrangementCost(order, s);
    benchmark::DoNotOptimize(order);
  }
  state.counters["arrangement_cost"] = cost;
}
BENCHMARK(BM_GreedyEmbedding)->Arg(128)->Arg(512)->Arg(2048);

void BM_HierarchyEmbedding(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const cluster::PairScores s = ClusteredScores(n, 4, 3);
  double cost = 0;
  for (auto _ : state) {
    auto order = embed::HierarchyEmbedding(s);
    cost = embed::ArrangementCost(order, s);
    benchmark::DoNotOptimize(order);
  }
  state.counters["arrangement_cost"] = cost;
}
BENCHMARK(BM_HierarchyEmbedding)->Arg(128)->Arg(512)->Arg(2048);

void BM_SpectralEmbedding(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const cluster::PairScores s = ClusteredScores(n, 4, 3);
  double cost = 0;
  for (auto _ : state) {
    auto order = embed::SpectralEmbedding(s);
    cost = embed::ArrangementCost(order, s);
    benchmark::DoNotOptimize(order);
  }
  state.counters["arrangement_cost"] = cost;
}
BENCHMARK(BM_SpectralEmbedding)->Arg(128)->Arg(512)->Arg(2048);

}  // namespace
}  // namespace topkdup

BENCHMARK_MAIN();
