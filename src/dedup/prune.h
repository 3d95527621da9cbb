#ifndef TOPKDUP_DEDUP_PRUNE_H_
#define TOPKDUP_DEDUP_PRUNE_H_

#include <vector>

#include "common/query_context.h"
#include "dedup/group.h"
#include "predicates/blocked_index.h"
#include "predicates/index_cache.h"
#include "predicates/pair_predicate.h"

namespace topkdup::dedup {

struct PruneOptions {
  /// Number of passes of the iterative recursive upper bound of §4.3.
  /// The paper observed two passes give ~2x more pruning than one, with
  /// little gain beyond two.
  int passes = 2;
};

struct PruneResult {
  /// Surviving groups, still in decreasing weight order.
  std::vector<Group> groups;
  /// Upper bounds computed in the final pass for the survivors, aligned
  /// with `groups`. A group with weight >= M gets an upper bound computed
  /// the same way (its neighbors' weights still matter for rank queries).
  std::vector<double> upper_bounds;
  /// True when the deadline stopped pruning early (fewer passes, or a pass
  /// with skipped shards). Surviving groups and bounds are still sound.
  bool degraded = false;
  /// True only when an urgent deadline check skipped shards mid-pass (the
  /// skipped shards kept their previous-pass state). A clean stop at a
  /// between-pass boundary leaves `degraded` true but this false: the
  /// surviving state is exactly the last completed pass's, fully
  /// consistent.
  bool pass_skipped = false;
  /// Passes that ran to completion over every shard.
  int passes_completed = 0;
  /// True when every entry of `upper_bounds` is an unconditional §4.3
  /// first-pass bound on its group's true duplicate count (a full
  /// neighbor-weight sum, or +inf for an urgent-skipped shard). Requires
  /// `exact_bounds` (an early-exited sum proves only "> M") and a single
  /// pass (later passes restrict the sum to surviving neighbors, which
  /// bounds groups exceeding M but not the true count unconditionally).
  /// When false the bounds are valid for pruning against M only.
  bool unconditional_bounds = false;
};

/// The blocked index of `pred` over `groups`' representatives, position i
/// holding groups[i].rep: the index EstimateLowerBound and PruneGroups
/// take. Resolved through `cache` when one is given, built otherwise.
predicates::IndexHandle RepresentativeIndex(
    const std::vector<Group>& groups, const predicates::PairPredicate& pred,
    predicates::IndexCache* cache = nullptr);

/// Prunes every group whose recursively tightened upper bound on the
/// largest group it can belong to is <= M (paper §4.3).
///
/// Pass 1 bounds u_i = w_i + sum of weights of all N-neighbors; pass p
/// restricts the sum to neighbors that survived pass p-1. Groups with
/// w_i >= M are never pruned. The scan over a group's candidates stops
/// early once its bound provably exceeds M, unless `exact_bounds` — needed
/// by the rank queries that compare bounds across groups — is requested.
/// `index` is the necessary predicate's blocked index over the groups'
/// representatives, position i holding groups[i].rep (the index the
/// level's EstimateLowerBound read).
///
/// The context's recorder, when set, receives the prune summary plus
/// per-group decisions (bound vs. M, decisive component) sampled
/// deterministically by group index — the same decisions are recorded at
/// any thread count. Its deadline, when set, is polled between passes
/// (full check — the only place work-budget expiry is decided, keeping
/// budget-limited runs deterministic) and at shard starts within a pass
/// (urgent wall-clock check). A skipped shard keeps its groups
/// alive with their previous valid upper bound (+inf in pass 1), so a
/// degraded prune only under-prunes — never discards a potential answer
/// group. Each examined candidate of a live neighbour is charged one work
/// unit, whether or not the predicate's exact blocking spares its
/// evaluation.
PruneResult PruneGroups(const std::vector<Group>& groups,
                        const predicates::PairPredicate& necessary,
                        const predicates::BlockedIndex& index, double M,
                        const PruneOptions& options = {},
                        bool exact_bounds = false,
                        const QueryContext& context = {});

/// First-pass §4.3 upper bounds u_i = w_i + sum of all N-neighbor weights
/// for the groups at `indices` (neighbors range over ALL of `groups`, so
/// the bound is valid regardless of which subset is asked about). Used to
/// attach [lower, upper] count intervals to a degraded answer when the
/// pruning stage never ran for the final partition. The context's
/// deadline, when set, is urgent-polled per shard; a skipped shard's bounds
/// are +inf (still valid, merely uninformative). Never charges work.
std::vector<double> ComputeGroupUpperBounds(
    const std::vector<Group>& groups,
    const predicates::PairPredicate& necessary,
    const std::vector<size_t>& indices, const QueryContext& context = {});

}  // namespace topkdup::dedup

#endif  // TOPKDUP_DEDUP_PRUNE_H_
