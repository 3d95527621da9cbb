#include "topk/rank_query.h"

#include <algorithm>
#include <limits>

#include "common/deadline.h"
#include "dedup/collapse.h"
#include "dedup/prune.h"
#include "predicates/blocked_index.h"
#include "predicates/index_cache.h"

namespace topkdup::topk {

namespace {

/// Materializes the N-neighbor lists among `groups` (positions).
std::vector<std::vector<uint32_t>> NeighborLists(
    const std::vector<dedup::Group>& groups,
    const predicates::PairPredicate& necessary,
    predicates::IndexCache* index_cache) {
  const predicates::IndexHandle index =
      dedup::RepresentativeIndex(groups, necessary, index_cache);
  const bool exact_blocking = necessary.BlockingIsExact();
  std::vector<std::vector<uint32_t>> adj(groups.size());
  index->ForEachCandidatePair([&](size_t p, size_t q) {
    if (exact_blocking ||
        necessary.Evaluate(groups[p].rep, groups[q].rep)) {
      adj[p].push_back(static_cast<uint32_t>(q));
      adj[q].push_back(static_cast<uint32_t>(p));
    }
  });
  return adj;
}

}  // namespace

StatusOr<TopKRankResult> TopKRankQuery(
    const record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const TopKRankOptions& options, const QueryContext& context) {
  if (levels.empty() || levels.back().necessary == nullptr) {
    return Status::InvalidArgument(
        "TopKRankQuery: the last level must carry a necessary predicate");
  }
  // The whole query's counter increments; see TopKCountQuery.
  const metrics::CounterBlock counters;
  const Deadline* deadline = context.deadline;
  dedup::PrunedDedupOptions prune_options;
  prune_options.k = options.k;
  prune_options.prune_passes = options.prune_passes;
  prune_options.exact_bounds = true;  // Bounds are compared across groups.
  TOPKDUP_ASSIGN_OR_RETURN(
      dedup::PrunedDedupResult pruning,
      dedup::PrunedDedup(data, levels, prune_options, context));

  TopKRankResult result;
  const std::vector<dedup::Group>& groups = pruning.groups;
  const size_t n = groups.size();
  const double M = pruning.levels.empty() ? 0.0 : pruning.levels.back().M;
  const predicates::PairPredicate& necessary = *levels.back().necessary;

  // A degraded prune cannot certify the cross-group bound comparisons the
  // §7.1 resolved-group rule relies on (its bounds may be missing, stale,
  // or restricted to surviving neighbors). Skip the extra pruning — less
  // pruning is always sound — and hand back every surviving group with a
  // recomputed unconditional §4.3 bound so the (c_i, u_i) pairs still cap
  // the true counts. The recomputation is urgent-polled only (work-budget
  // expiry is already latched; metering it again would zero out every
  // interval to +inf).
  if (deadline != nullptr &&
      (pruning.degradation.degraded || deadline->Expired())) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    std::vector<double> bounds =
        pruning.upper_bounds_unconditional && pruning.upper_bounds.size() == n
            ? pruning.upper_bounds
            : dedup::ComputeGroupUpperBounds(
                  groups, necessary, all, {.index_cache = context.index_cache});
    result.ranked.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      result.ranked.push_back(RankedGroup{groups[i], bounds[i]});
    }
    result.degradation = pruning.degradation;
    result.pruning = std::move(pruning);
    result.counters = counters.Samples();
    return result;
  }

  const std::vector<double>& ub = pruning.upper_bounds;
  const std::vector<std::vector<uint32_t>> adj =
      NeighborLists(groups, necessary, context.index_cache);

  // §7.1: a group j is resolved when it has no ranking conflict with any
  // non-neighbor and none of its neighbors can outgrow M without it. The
  // loop is O(n^2): poll the deadline urgently per row and wind down with
  // rows conservatively unresolved (sound — unresolved groups only ever
  // suppress extra pruning).
  std::vector<bool> is_neighbor(n, false);
  std::vector<bool> resolved(n, false);
  bool resolution_complete = true;
  for (size_t j = 0; j < n; ++j) {
    if (deadline != nullptr && deadline->ExpiredUrgent()) {
      resolution_complete = false;
      break;
    }
    for (uint32_t g : adj[j]) is_neighbor[g] = true;
    bool ok = true;
    for (size_t g = 0; g < n && ok; ++g) {
      if (g == j) continue;
      if (is_neighbor[g]) {
        if (ub[g] - groups[j].weight >= M) ok = false;
      } else {
        const bool no_conflict =
            groups[j].weight >= ub[g] || ub[j] <= groups[g].weight;
        if (!no_conflict) ok = false;
      }
    }
    resolved[j] = ok;
    for (uint32_t g : adj[j]) is_neighbor[g] = false;
  }

  // Prune neighbors of resolved groups that (a) cannot reach M on their
  // own (weight < M) and (b) are not adjacent to any unresolved group with
  // upper bound >= M.
  std::vector<bool> keep(n, true);
  for (size_t g = 0; g < n; ++g) {
    if (groups[g].weight >= M) continue;
    bool adjacent_to_resolved = false;
    bool adjacent_to_live_unresolved = false;
    for (uint32_t i : adj[g]) {
      if (resolved[i]) {
        adjacent_to_resolved = true;
      } else if (ub[i] >= M) {
        adjacent_to_live_unresolved = true;
      }
    }
    if (adjacent_to_resolved && !adjacent_to_live_unresolved) {
      keep[g] = false;
      ++result.resolved_pruned;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    RankedGroup rg;
    rg.group = groups[i];
    rg.upper_bound = ub[i];
    result.ranked.push_back(std::move(rg));
  }
  result.degradation = pruning.degradation;
  if (!resolution_complete) {
    MarkDegraded(*deadline, "rank_resolution", /*level=*/0,
                 /*partial_stage=*/true, &result.degradation);
  }
  result.pruning = std::move(pruning);
  result.counters = counters.Samples();
  return result;
}

StatusOr<ThresholdedRankResult> ThresholdedRankQuery(
    const record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const ThresholdedRankOptions& options, const QueryContext& context) {
  if (levels.empty() || levels.back().necessary == nullptr) {
    return Status::InvalidArgument(
        "ThresholdedRankQuery: the last level must carry a necessary "
        "predicate");
  }
  if (options.threshold <= 0.0) {
    return Status::InvalidArgument(
        "ThresholdedRankQuery: threshold must be positive");
  }
  const double T = options.threshold;
  const QueryContext stage_context{.index_cache = context.index_cache};

  std::vector<dedup::Group> groups =
      dedup::MakeSingletonGroups(data);
  std::vector<double> ub(groups.size(), 0.0);
  for (const dedup::PredicateLevel& level : levels) {
    if (level.sufficient != nullptr) {
      groups = dedup::Collapse(groups, *level.sufficient, stage_context);
    }
    if (level.necessary != nullptr) {
      const predicates::IndexHandle index = dedup::RepresentativeIndex(
          groups, *level.necessary, stage_context.index_cache);
      dedup::PruneResult pruned = dedup::PruneGroups(
          groups, *level.necessary, *index, T,
          {.passes = options.prune_passes}, /*exact_bounds=*/true,
          stage_context);
      groups = std::move(pruned.groups);
      ub = std::move(pruned.upper_bounds);
    }
  }

  ThresholdedRankResult result;
  const size_t n = groups.size();
  for (size_t i = 0; i < n; ++i) {
    result.ranked.push_back(RankedGroup{groups[i], ub[i]});
  }

  // §7.2 termination: find the longest prefix of certainly-distinct,
  // certainly-ordered groups of weight >= T...
  const predicates::PairPredicate& necessary = *levels.back().necessary;
  const std::vector<std::vector<uint32_t>> adj =
      NeighborLists(groups, necessary, context.index_cache);
  size_t k = 0;
  while (k < n && groups[k].weight >= T &&
         (k == 0 || groups[k - 1].weight >= ub[k])) {
    ++k;
  }
  if (k == 0) return result;

  // ...and require every later group to be redundant given the prefix.
  bool all_redundant = true;
  for (size_t j = k; j < n && all_redundant; ++j) {
    bool redundant = false;
    for (uint32_t i : adj[j]) {
      if (i < k && ub[j] - groups[i].weight <= T) {
        redundant = true;
        break;
      }
    }
    if (!redundant) all_redundant = false;
  }
  if (all_redundant) {
    result.resolved = true;
    result.resolved_count = k;
  }
  return result;
}

}  // namespace topkdup::topk
