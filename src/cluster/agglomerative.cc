#include "cluster/agglomerative.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/check.h"
#include "common/strings.h"

namespace topkdup::cluster {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

StatusOr<AgglomerativeResult> Agglomerate(const PairScores& scores,
                                          Linkage linkage,
                                          double stop_threshold,
                                          size_t max_items) {
  const size_t n = scores.item_count();
  if (n > max_items) {
    return Status::ResourceExhausted(
        StrFormat("Agglomerate: %zu items exceeds max_items=%zu (O(n^2) "
                  "memory)",
                  n, max_items));
  }
  AgglomerativeResult result;
  if (n == 0) return result;
  if (n == 1) {
    result.labels = {0};
    return result;
  }

  // Dense similarity between active clusters, indexed by slot. Slot i holds
  // cluster id ids[i]; merged-away slots are marked dead.
  std::vector<std::vector<double>> sim(
      n, std::vector<double>(n, scores.default_score()));
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [j, s] : scores.Neighbors(i)) sim[i][j] = s;
    sim[i][i] = kNegInf;
  }
  std::vector<bool> dead(n, false);
  std::vector<int> ids(n);
  std::vector<size_t> sizes(n, 1);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int>(i);

  // Best-partner cache per live slot.
  std::vector<size_t> best(n, 0);
  auto recompute_best = [&](size_t i) {
    double bv = kNegInf;
    size_t bj = i;
    for (size_t j = 0; j < n; ++j) {
      if (j == i || dead[j]) continue;
      if (sim[i][j] > bv) {
        bv = sim[i][j];
        bj = j;
      }
    }
    best[i] = bj;
  };
  for (size_t i = 0; i < n; ++i) recompute_best(i);

  // Union-find over leaves for the flat clustering prefix.
  std::vector<int> flat_parent(n);
  for (size_t i = 0; i < n; ++i) flat_parent[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    while (flat_parent[x] != x) {
      flat_parent[x] = flat_parent[flat_parent[x]];
      x = flat_parent[x];
    }
    return x;
  };

  // Map slot -> a representative leaf for flat unions.
  std::vector<size_t> leaf_rep(n);
  for (size_t i = 0; i < n; ++i) leaf_rep[i] = i;

  bool flat_phase = true;
  int next_id = static_cast<int>(n);
  size_t live = n;
  while (live > 1) {
    // Find the globally best pair via the per-slot caches.
    double bv = kNegInf;
    size_t bi = 0;
    for (size_t i = 0; i < n; ++i) {
      if (dead[i]) continue;
      const size_t j = best[i];
      if (j != i && !dead[j] && sim[i][j] > bv) {
        bv = sim[i][j];
        bi = i;
      }
    }
    const size_t a = bi;
    const size_t b = best[bi];
    TOPKDUP_CHECK(a != b && !dead[a] && !dead[b]);

    if (bv < stop_threshold) flat_phase = false;
    if (flat_phase) {
      flat_parent[find(static_cast<int>(leaf_rep[a]))] =
          find(static_cast<int>(leaf_rep[b]));
    }

    Merge merge;
    merge.left = ids[a];
    merge.right = ids[b];
    merge.result = next_id++;
    merge.linkage = bv;
    result.merges.push_back(merge);

    // Merge b into a (slot a becomes the new cluster).
    for (size_t j = 0; j < n; ++j) {
      if (dead[j] || j == a || j == b) continue;
      double updated = 0.0;
      switch (linkage) {
        case Linkage::kSingle:
          updated = std::max(sim[a][j], sim[b][j]);
          break;
        case Linkage::kAverage:
          updated = (sim[a][j] * static_cast<double>(sizes[a]) +
                     sim[b][j] * static_cast<double>(sizes[b])) /
                    static_cast<double>(sizes[a] + sizes[b]);
          break;
      }
      sim[a][j] = updated;
      sim[j][a] = updated;
    }
    sim[a][b] = kNegInf;
    sim[b][a] = kNegInf;
    dead[b] = true;
    ids[a] = merge.result;
    sizes[a] += sizes[b];
    --live;

    // Refresh caches: slot a changed, slot b died; any slot whose best
    // pointed at a or b must rescan.
    recompute_best(a);
    for (size_t i = 0; i < n; ++i) {
      if (dead[i] || i == a) continue;
      if (best[i] == a || best[i] == b) {
        recompute_best(i);
      } else if (sim[i][a] > sim[i][best[i]]) {
        best[i] = a;
      }
    }
  }

  result.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    result.labels[i] = find(static_cast<int>(i));
  }
  result.labels = Canonicalize(result.labels);
  return result;
}

std::vector<size_t> DendrogramLeafOrder(const std::vector<Merge>& merges,
                                        size_t n) {
  // children[id] for internal nodes (id >= n).
  std::vector<std::pair<int, int>> children(n + merges.size(), {-1, -1});
  std::vector<bool> is_child(n + merges.size(), false);
  for (const Merge& m : merges) {
    children[m.result] = {m.left, m.right};
    is_child[m.left] = true;
    is_child[m.right] = true;
  }
  std::vector<size_t> order;
  order.reserve(n);
  // There may be several roots if the caller stopped early; visit each.
  std::function<void(int)> visit = [&](int node) {
    if (node < static_cast<int>(n)) {
      order.push_back(static_cast<size_t>(node));
      return;
    }
    visit(children[node].first);
    visit(children[node].second);
  };
  for (int node = static_cast<int>(n + merges.size()) - 1; node >= 0;
       --node) {
    if (!is_child[node]) visit(node);
  }
  return order;
}

}  // namespace topkdup::cluster
