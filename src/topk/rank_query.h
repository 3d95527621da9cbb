#ifndef TOPKDUP_TOPK_RANK_QUERY_H_
#define TOPKDUP_TOPK_RANK_QUERY_H_

#include <vector>

#include "common/metrics.h"
#include "common/query_context.h"
#include "common/status.h"
#include "dedup/pruned_dedup.h"
#include "record/record.h"

namespace topkdup::topk {

/// A group with the upper bound on the largest duplicate group containing
/// it — the (c_i, u_i) pairs of §7.1.
struct RankedGroup {
  dedup::Group group;
  double upper_bound = 0.0;
};

struct TopKRankResult {
  /// Groups surviving all pruning, by decreasing weight, with bounds.
  /// On a degraded run every upper_bound is still a valid unconditional
  /// cap on its group's true duplicate count (recomputed first-pass §4.3
  /// bounds when the pruning stage could not finish in budget).
  std::vector<RankedGroup> ranked;
  /// Number of groups the §7.1 resolved-group rule pruned beyond the
  /// standard §4.3 prune. Always 0 on a degraded run: the resolved-group
  /// rule compares exact bounds across groups, which a partial prune
  /// cannot certify, so it is skipped rather than risk unsound pruning.
  size_t resolved_pruned = 0;
  dedup::PrunedDedupResult pruning;
  /// Degradation verdict (mirrors pruning.degradation): degraded == false
  /// means the full §7.1 pipeline ran.
  DegradationInfo degradation;
  /// The query's own counter totals; see TopKCountResult::counters.
  std::vector<metrics::CounterSample> counters;
};

struct TopKRankOptions {
  int k = 10;
  int prune_passes = 2;
};

/// The TopK *rank* query of §7.1: like the count query, but since only the
/// ranked order (with a canonical member per group) is needed, groups whose
/// rank is resolved enable extra pruning of their neighbors. Returns the
/// surviving groups with their upper bounds; the first K are the answer
/// candidates. On expiry of the context's deadline the query returns OK
/// with its best partial ranking: surviving groups with sound
/// unconditional upper bounds and `degradation` filled.
StatusOr<TopKRankResult> TopKRankQuery(
    const record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const TopKRankOptions& options, const QueryContext& context = {});

struct ThresholdedRankResult {
  /// All surviving groups by decreasing weight, with exact upper bounds.
  std::vector<RankedGroup> ranked;
  /// True when the §7.2 termination condition held: `resolved_count`
  /// leading groups are certainly the distinct groups of size >= T, in
  /// order, and everything after them is redundant.
  bool resolved = false;
  size_t resolved_count = 0;
};

struct ThresholdedRankOptions {
  double threshold = 0.0;  // The user's T.
  int prune_passes = 2;
};

/// The thresholded rank query of §7.2: M is fixed to the user threshold T
/// instead of being estimated, and the pipeline terminates early when the
/// leading groups provably are the answer. When `resolved` is false the
/// caller must fall back to exact evaluation on the (already much smaller)
/// surviving groups. Of the context it uses only the index cache: the
/// query has no degraded mode and no explain report.
StatusOr<ThresholdedRankResult> ThresholdedRankQuery(
    const record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const ThresholdedRankOptions& options, const QueryContext& context = {});

}  // namespace topkdup::topk

#endif  // TOPKDUP_TOPK_RANK_QUERY_H_
