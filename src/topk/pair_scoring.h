#ifndef TOPKDUP_TOPK_PAIR_SCORING_H_
#define TOPKDUP_TOPK_PAIR_SCORING_H_

#include <functional>
#include <vector>

#include "cluster/pair_scores.h"
#include "common/query_context.h"
#include "dedup/group.h"
#include "predicates/pair_predicate.h"

namespace topkdup::topk {

/// Signed pairwise scoring function over two *record ids* (typically group
/// representatives): positive = duplicates, negative = distinct (§5.1).
/// Called concurrently from the parallel scoring path, so implementations
/// must be thread-safe for const access (pure functions over an immutable
/// corpus qualify).
using PairScoreFn = std::function<double(size_t, size_t)>;

struct PairScoringOptions {
  /// Score for pairs failing the necessary predicate (must be <= 0).
  /// These pairs are certain non-duplicates, so a mild repulsion rewards
  /// keeping them in separate groups and stops the segmentation DP from
  /// absorbing unrelated neighbors into answer segments for free.
  double default_score = -0.25;
};

/// Builds the sparse pairwise score matrix over `groups` (indexed by group
/// position): pairs passing the necessary predicate's blocking + evaluation
/// get scorer(rep_a, rep_b); all other pairs take the default. This is
/// "apply criteria P on pairs for which N_L is true" (Algorithm 2, step 9).
/// A collapsed group's pair score is its representative's raw score
/// (Algorithm 2's step 10 aggregate): stored and default scores stay on
/// one scale, and group weights enter the TopK computation only through
/// segment weights.
///
/// The context's deadline, when set, is polled urgently (wall clock only)
/// at shard boundaries; skipped shards leave their pairs on the default
/// score — a consistent, merely less informed, score matrix.
/// Enumerated pairs are charged as work.
cluster::PairScores BuildGroupPairScores(
    const std::vector<dedup::Group>& groups,
    const predicates::PairPredicate& necessary, const PairScoreFn& scorer,
    const PairScoringOptions& options = {}, const QueryContext& context = {});

}  // namespace topkdup::topk

#endif  // TOPKDUP_TOPK_PAIR_SCORING_H_
