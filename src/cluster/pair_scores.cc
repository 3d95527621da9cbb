#include "cluster/pair_scores.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace topkdup::cluster {

namespace {

/// Pairs a shard of the build covers at least, so a small matrix is built
/// inline. Near-empty pool regions are not free: on a 4-core host, three
/// of them per query on the 17-group `serve_online` snapshot tripled the
/// wall time of the following query's prune stage.
constexpr size_t kMinShardPairs = size_t{1} << 14;

}  // namespace

PairScores::PairScores(size_t n, double default_score,
                       std::span<const std::vector<ScoredPair>> pair_lists)
    : n_(n),
      default_score_(default_score),
      row_start_(n + 1, 0),
      neg_incident_(n, 0.0) {
  TOPKDUP_CHECK(default_score <= 0.0);
  const size_t lists = pair_lists.size();
  for (const std::vector<ScoredPair>& list : pair_lists) {
    pair_count_ += list.size();
  }
  const size_t list_grain = std::max<size_t>(
      1, lists * kMinShardPairs / std::max<size_t>(1, pair_count_));
  const size_t row_grain = std::max(
      DefaultGrain(n), n * kMinShardPairs / std::max<size_t>(1, pair_count_));

  // cursor[l * n + i] first counts list l's entries in row i, then becomes
  // the position of the next one. Each list owns its n slots, so the lists
  // are counted and scattered concurrently.
  std::vector<size_t> cursor(lists * n, 0);
  ParallelFor(0, lists, list_grain, [&](size_t l) {
    size_t* count = cursor.data() + l * n;
    for (const ScoredPair& p : pair_lists[l]) {
      TOPKDUP_CHECK(p.i < n && p.j < n && p.i != p.j);
      ++count[p.i];
      ++count[p.j];
    }
  });
  for (size_t l = 0; l < lists; ++l) {
    for (size_t i = 0; i < n; ++i) row_start_[i + 1] += cursor[l * n + i];
  }
  for (size_t i = 0; i < n; ++i) row_start_[i + 1] += row_start_[i];
  // Within row i, list 0's entries come first, then list 1's, and so on.
  std::vector<size_t> next(row_start_.begin(), row_start_.end() - 1);
  for (size_t l = 0; l < lists; ++l) {
    for (size_t i = 0; i < n; ++i) {
      const size_t count = cursor[l * n + i];
      cursor[l * n + i] = next[i];
      next[i] += count;
    }
  }

  // The cursors partition [0, 2 * pair_count_): each slot is written
  // exactly once below, so the array skips the fill and the scatter's
  // writes are its first touch.
  entries_ = std::make_unique_for_overwrite<Neighbor[]>(row_start_[n]);
  ParallelFor(0, lists, list_grain, [&](size_t l) {
    size_t* at = cursor.data() + l * n;
    for (const ScoredPair& p : pair_lists[l]) {
      entries_[at[p.i]++] = {p.j, p.score};
      entries_[at[p.j]++] = {p.i, p.score};
    }
  });
  ParallelFor(0, n, row_grain, [&](size_t i) {
    double sum = 0.0;
    for (const auto& [other, s] : Neighbors(i)) {
      if (s < 0.0) sum += s;
    }
    neg_incident_[i] = sum;
  });
}

PairScores::PairScores(size_t n, double default_score,
                       const std::vector<ScoredPair>& pairs)
    : PairScores(n, default_score, std::span(&pairs, 1)) {}

const PairScores::Neighbor* PairScores::Find(size_t i, size_t j) const {
  if (Neighbors(j).size() < Neighbors(i).size()) std::swap(i, j);
  for (const Neighbor& entry : Neighbors(i)) {
    if (entry.first == j) return &entry;
  }
  return nullptr;
}

double PairScores::Get(size_t i, size_t j) const {
  TOPKDUP_CHECK(i < n_ && j < n_);
  if (i == j) return 0.0;
  const Neighbor* entry = Find(i, j);
  return entry == nullptr ? default_score_ : entry->second;
}

bool PairScores::Has(size_t i, size_t j) const {
  if (i >= n_ || j >= n_ || i == j) return false;
  return Find(i, j) != nullptr;
}

Labels Canonicalize(const Labels& labels) {
  Labels out(labels.size(), -1);
  std::unordered_map<int, int> remap;
  for (size_t i = 0; i < labels.size(); ++i) {
    auto [it, inserted] =
        remap.emplace(labels[i], static_cast<int>(remap.size()));
    out[i] = it->second;
  }
  return out;
}

std::vector<std::vector<size_t>> LabelsToGroups(const Labels& labels) {
  const Labels canon = Canonicalize(labels);
  int max_label = -1;
  for (int l : canon) max_label = std::max(max_label, l);
  std::vector<std::vector<size_t>> groups(max_label + 1);
  for (size_t i = 0; i < canon.size(); ++i) {
    groups[canon[i]].push_back(i);
  }
  return groups;
}

Labels GroupsToLabels(const std::vector<std::vector<size_t>>& groups,
                      size_t n) {
  Labels labels(n, -1);
  for (size_t c = 0; c < groups.size(); ++c) {
    for (size_t item : groups[c]) {
      TOPKDUP_CHECK(item < n && labels[item] == -1);
      labels[item] = static_cast<int>(c);
    }
  }
  for (int l : labels) TOPKDUP_CHECK(l >= 0);
  return labels;
}

}  // namespace topkdup::cluster
