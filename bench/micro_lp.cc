// Micro benchmark: the dense simplex and the cutting-plane correlation
// LP — cost versus item count and the integrality rate on signed random
// instances (context for fig7's exact-reference policy).
#include <benchmark/benchmark.h>

#include "cluster/lp_cluster.h"
#include "cluster/pair_scores.h"
#include "common/rng.h"
#include "lp/simplex.h"

namespace topkdup {
namespace {

void BM_SimplexDense(benchmark::State& state) {
  // max sum x_i subject to random packing rows.
  const int vars = static_cast<int>(state.range(0));
  const int rows = vars;
  Rng rng(3);
  std::vector<lp::Constraint> constraints;
  for (int r = 0; r < rows; ++r) {
    lp::Constraint c;
    for (int v = 0; v < vars; ++v) {
      if (rng.Bernoulli(0.3)) {
        c.terms.push_back({v, 0.5 + rng.NextDouble()});
      }
    }
    c.rhs = 1.0 + rng.NextDouble() * 4.0;
    constraints.push_back(std::move(c));
  }
  std::vector<double> objective(vars, 1.0);
  for (auto _ : state) {
    auto result = lp::SolveLp(vars, objective, constraints);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SimplexDense)->Arg(32)->Arg(128)->Arg(256);

void BM_LpClusterComponent(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<cluster::ScoredPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.5)) {
        pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                         (rng.NextDouble() - 0.5) * 4.0});
      }
    }
  }
  const cluster::PairScores scores(n, 0.0, pairs);
  bool integral = false;
  for (auto _ : state) {
    auto result = cluster::LpCluster(scores);
    if (result.ok()) integral = result.value().integral;
    benchmark::DoNotOptimize(result);
  }
  state.counters["integral"] = integral ? 1 : 0;
}
BENCHMARK(BM_LpClusterComponent)->Arg(8)->Arg(16)->Arg(24);

}  // namespace
}  // namespace topkdup

BENCHMARK_MAIN();
