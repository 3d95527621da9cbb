#include "embed/linear_embedding.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/agglomerative.h"
#include "common/check.h"
#include "common/rng.h"

namespace topkdup::embed {

std::vector<size_t> GreedyEmbedding(const cluster::PairScores& scores,
                                    const std::vector<double>& weights,
                                    const GreedyEmbeddingOptions& options) {
  const size_t n = scores.item_count();
  TOPKDUP_CHECK(options.alpha > 0.0 && options.alpha <= 1.0);
  TOPKDUP_CHECK(weights.empty() || weights.size() == n);
  std::vector<size_t> order;
  if (n == 0) return order;
  order.reserve(n);

  auto weight_of = [&](size_t k) {
    return weights.empty() ? 0.0 : weights[k];
  };

  // Aged affinity of each unplaced item to the placed prefix, kept lazily:
  // the true affinity at step i is value[k] * alpha^(i - stamp[k]).
  std::vector<double> value(n, 0.0);
  std::vector<size_t> stamp(n, 0);
  std::vector<uint8_t> placed(n, 0);
  // aging[d] = alpha^d for every age a step can see (d <= n). The same
  // std::pow calls as evaluating it in the loop, made once per d.
  std::vector<double> aging(n + 1);
  for (size_t d = 0; d <= n; ++d) {
    aging[d] = std::pow(options.alpha, static_cast<double>(d));
  }

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
    // Sampled by step index, so the recorded picks are the same for a
    // given input regardless of how the caller parallelized upstream.
    const bool record_pick = options.recorder != nullptr &&
                             options.recorder->SampleKey(i);
    double best_affinity = 0.0;
    size_t runner_up = n;
    double runner_up_affinity = 0.0;
    if (!order.empty()) {
      for (size_t k = 0; k < n; ++k) {
        if (placed[k]) continue;
        const double aged = value[k] * aging[i - stamp[k]];
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
      options.recorder->RecordEmbeddingPick(
          {i, chosen, new_region ? 0.0 : best_affinity, runner_up,
           runner_up_affinity, new_region});
    }

    placed[chosen] = 1;
    order.push_back(chosen);
    // Fold the newly placed item's similarities into its unplaced
    // neighbors' affinities at the current timestamp.
    for (const auto& [other, s] : scores.Neighbors(chosen)) {
      if (placed[other]) continue;
      value[other] *= aging[i + 1 - stamp[other]];
      stamp[other] = i + 1;
      value[other] += s;
    }
  }
  if (options.recorder != nullptr) {
    options.recorder->RecordEmbeddingSummary(n, options.alpha, regions);
  }
  return order;
}

double ArrangementCost(const std::vector<size_t>& order,
                       const cluster::PairScores& scores) {
  std::vector<size_t> pos(scores.item_count(), 0);
  for (size_t p = 0; p < order.size(); ++p) pos[order[p]] = p;
  double cost = 0.0;
  for (size_t i = 0; i < scores.item_count(); ++i) {
    for (const auto& [j, s] : scores.Neighbors(i)) {
      if (j <= i || s <= 0.0) continue;
      const double dist = pos[i] > pos[j]
                              ? static_cast<double>(pos[i] - pos[j])
                              : static_cast<double>(pos[j] - pos[i]);
      cost += dist * s;
    }
  }
  return cost;
}

std::vector<size_t> HierarchyEmbedding(const cluster::PairScores& scores,
                                       size_t max_items) {
  auto result = cluster::Agglomerate(scores, cluster::Linkage::kAverage,
                                     /*stop_threshold=*/0.0, max_items);
  if (!result.ok()) return GreedyEmbedding(scores);
  return cluster::DendrogramLeafOrder(result.value().merges,
                                      scores.item_count());
}

std::vector<size_t> SpectralEmbedding(const cluster::PairScores& scores,
                                      const SpectralEmbeddingOptions& options) {
  const size_t n = scores.item_count();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  if (n <= 2) return order;

  // Positive-part similarity graph, degrees, Laplacian spectral bound.
  std::vector<double> degree(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [j, s] : scores.Neighbors(i)) {
      (void)j;
      if (s > 0.0) degree[i] += s;
    }
  }
  double max_degree = 0.0;
  for (double d : degree) max_degree = std::max(max_degree, d);
  const double shift = 2.0 * max_degree + 1.0;

  // Power iteration on M = shift*I - L restricted to the space orthogonal
  // to the constant vector; the dominant eigenvector there is the Fiedler
  // vector of L.
  Rng rng(options.seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextDouble() - 0.5;
  std::vector<double> next(n);

  auto orthogonalize_and_normalize = [&](std::vector<double>* vec) {
    double mean = 0.0;
    for (double x : *vec) mean += x;
    mean /= static_cast<double>(n);
    double norm = 0.0;
    for (double& x : *vec) {
      x -= mean;
      norm += x * x;
    }
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (double& x : *vec) x /= norm;
    }
  };
  orthogonalize_and_normalize(&v);

  for (int it = 0; it < options.power_iterations; ++it) {
    // next = (shift*I - L) v = shift*v - D v + W v.
    for (size_t i = 0; i < n; ++i) {
      next[i] = (shift - degree[i]) * v[i];
    }
    for (size_t i = 0; i < n; ++i) {
      for (const auto& [j, s] : scores.Neighbors(i)) {
        if (s > 0.0) next[i] += s * v[j];
      }
    }
    orthogonalize_and_normalize(&next);
    v.swap(next);
  }

  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (v[a] != v[b]) return v[a] < v[b];
    return a < b;
  });
  return order;
}

}  // namespace topkdup::embed
