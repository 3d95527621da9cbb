// Micro benchmark + ablation: the two clique-partition-number lower
// bounds (Algorithm-1 min-fill vs direct greedy independent set) on random
// graphs of varying size and density — cost and tightness drive the
// lower-bound estimator's policy (greedy first; min-fill only on prefixes
// of at most 1024 groups).
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "graph/clique_partition.h"
#include "graph/graph.h"

namespace topkdup {
namespace {

graph::Graph RandomGraph(size_t n, double p, uint64_t seed) {
  Rng rng(seed);
  graph::Graph g(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(p)) g.AddEdge(i, j);
    }
  }
  return g;
}

void BM_MinFillBound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 100.0;
  const graph::Graph g = RandomGraph(n, p, 7);
  int bound = 0;
  for (auto _ : state) {
    bound = graph::CliquePartitionLowerBound(g);
    benchmark::DoNotOptimize(bound);
  }
  state.counters["bound"] = bound;
}
BENCHMARK(BM_MinFillBound)
    ->Args({64, 5})
    ->Args({64, 20})
    ->Args({256, 5})
    ->Args({256, 20})
    ->Args({1024, 2});

void BM_GreedyIsBound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 100.0;
  const graph::Graph g = RandomGraph(n, p, 7);
  int bound = 0;
  for (auto _ : state) {
    bound = graph::GreedyIndependentSetBound(g);
    benchmark::DoNotOptimize(bound);
  }
  state.counters["bound"] = bound;
}
BENCHMARK(BM_GreedyIsBound)
    ->Args({64, 5})
    ->Args({64, 20})
    ->Args({256, 5})
    ->Args({256, 20})
    ->Args({1024, 2});

void BM_ExactCpnSmall(benchmark::State& state) {
  const graph::Graph g = RandomGraph(14, 0.3, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::CliquePartitionExact(g));
  }
}
BENCHMARK(BM_ExactCpnSmall);

}  // namespace
}  // namespace topkdup

BENCHMARK_MAIN();
