#ifndef TOPKDUP_DEDUP_LOWER_BOUND_H_
#define TOPKDUP_DEDUP_LOWER_BOUND_H_

#include <cstddef>
#include <vector>

#include "common/query_context.h"
#include "dedup/group.h"
#include "predicates/blocked_index.h"
#include "predicates/pair_predicate.h"

namespace topkdup::dedup {

/// Result of the lower-bound estimation of paper §4.2.
struct LowerBoundResult {
  /// Smallest prefix length m of the weight-sorted groups whose
  /// necessary-predicate graph has clique-partition number >= k (so K
  /// distinct entities are guaranteed among c_1..c_m). Equals the number
  /// of groups when no prefix certifies K distinct entities.
  size_t m = 0;
  /// Lower bound on the weight of the K-th largest answer group:
  /// the weight of group c_m (0 when there are no groups).
  double M = 0.0;
  /// True when a prefix with CPN >= k was found (K distinct entities are
  /// certified); false means the dataset may hold fewer than K entities.
  bool certified = false;
  /// Necessary-predicate edges enumerated while growing the prefix
  /// (diagnostic).
  size_t edges_examined = 0;
  /// Necessary-predicate evaluations among them: edges_examined, or 0
  /// when the predicate's blocking is exact.
  size_t pair_evals = 0;
  /// CPN bound evaluations performed while locating m (growth iterations:
  /// the galloping probes plus the binary-search refinement).
  size_t cpn_evaluations = 0;
  /// True when the search stopped early on deadline expiry. The returned
  /// (m, M) are still sound: either the best certified prefix found so far
  /// (possibly non-minimal, so M is merely weaker) or the uncertified
  /// whole-list fallback.
  bool degraded = false;
};

/// Estimates m and M for `groups` (sorted by decreasing weight) under the
/// given necessary predicate, per paper §4.2: the CPN lower bound of the
/// graph induced by N on a prefix certifies that many distinct entities,
/// and any prefix with CPN >= k yields the bound M = weight(c_m).
/// `index` is the necessary predicate's blocked index over the groups'
/// representatives, position i holding groups[i].rep; PrunedDedup builds
/// it once per level and hands the same index to PruneGroups.
///
/// The search gallops: prefix sizes k, 2k, 4k, ... until one certifies k,
/// then a binary search locates the smallest certifying prefix, so the CPN
/// bound runs on O(log n) prefixes. Each prefix takes the greedy
/// independent-set bound, and when that falls short of k on a prefix of
/// at most 1024 groups, the larger of it and Algorithm 1's min-fill bound
/// (graph/clique_partition.h). Both are valid lower bounds, so M is sound
/// even where the bound is not monotone in the prefix.
///
/// The context's recorder, when set, receives every CPN probe (prefix
/// size, certified bound, which search phase asked) plus the final m/M
/// summary. Its deadline, when set, is polled between CPN probes (full
/// check, deterministic under a work budget) and during edge growth
/// (urgent wall-clock check). A probe interrupted mid-growth is
/// abandoned whole — a CPN bound over a partially grown edge set could
/// falsely certify distinctness, so partial probes never contribute.
/// Necessary-predicate edge enumerations are charged as work units.
LowerBoundResult EstimateLowerBound(
    const std::vector<Group>& groups,
    const predicates::PairPredicate& necessary,
    const predicates::BlockedIndex& index, int k,
    const QueryContext& context = {});

}  // namespace topkdup::dedup

#endif  // TOPKDUP_DEDUP_LOWER_BOUND_H_
