#ifndef TOPKDUP_SEGMENT_TOPK_DP_H_
#define TOPKDUP_SEGMENT_TOPK_DP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "cluster/pair_scores.h"
#include "common/deadline.h"
#include "common/status.h"
#include "segment/segment_scorer.h"

namespace topkdup::segment {

/// A span of consecutive positions [begin, end], inclusive, in a linear
/// embedding.
struct Span {
  size_t begin = 0;
  size_t end = 0;

  bool operator==(const Span&) const = default;
};

/// One of the R highest-scoring TopK answers (paper §5.3.2): a full
/// segmentation of the embedding plus the K segments designated as the
/// answer groups.
struct TopKAnswer {
  /// Total decomposable score of the segmentation (sum of S over all its
  /// segments).
  double score = 0.0;
  /// The K answer segments, sorted by decreasing total weight.
  std::vector<Span> answer;
  /// The full segmentation, left to right.
  std::vector<Span> segmentation;
  /// The weight threshold under which this answer was found: every
  /// non-answer segment weighs <= threshold < every answer segment.
  double threshold = 0.0;
};

struct TopKDpOptions {
  int k = 1;
  int r = 1;
  /// Maximum segment length in positions (the paper's practical cap on
  /// clusters with too many dissimilar points).
  size_t band = 32;
  /// Cap on the candidate threshold set. When the number of distinct
  /// achievable segment weights exceeds this, the set is subsampled
  /// (quantiles plus the heaviest values); the DP is then exact per
  /// candidate threshold but may miss an optimum whose critical threshold
  /// was dropped. 0 = no cap.
  size_t max_thresholds = 64;
  /// When non-null, bounds the threshold exploration. Each threshold's
  /// table costs a closed-form number of work units (one per row and
  /// segment length), so before any table is filled the remaining work
  /// budget fixes how many leading thresholds run; when it cannot cover
  /// them all, the rest of the budget is spent and the stop latches as a
  /// work-budget expiry. Thresholds run in parallel and poll only the
  /// wall clock; a threshold interrupted that way contributes nothing,
  /// and neither does any later one. Callers detect the truncation via
  /// deadline->expired().
  const Deadline* deadline = nullptr;
};

/// Finds the R highest-scoring TopK answers over all segmentations of the
/// given linear order, where the K answer segments must each weigh
/// strictly more than every non-answer segment. Implements the AnsR
/// recurrence of §5.3.2, parameterized by a weight threshold rather than a
/// positional length because collapsed positions carry weights.
///
/// `weights[item]` is each item's weight (e.g. collapsed-group weight);
/// pass all-ones for plain mention counts. Returns up to R answers sorted
/// by decreasing score; fewer when the order admits fewer than R distinct
/// qualifying segmentations. The answers are identical at any thread
/// count. Errors when k < 1, r is outside [1, 255], or the order cannot
/// produce K segments.
StatusOr<std::vector<TopKAnswer>> TopKSegmentation(
    const SegmentScorer& scorer, const std::vector<size_t>& order,
    const std::vector<double>& weights, const TopKDpOptions& options);

/// The R highest-scoring *unconstrained* segmentations (no TopK answer
/// designation) — the partition-quality workhorse used by the fig7
/// accuracy comparison. Returns up to `r` segmentations sorted by
/// decreasing score. Errors when r is outside [1, 255].
struct Segmentation {
  double score = 0.0;
  std::vector<Span> spans;
};
StatusOr<std::vector<Segmentation>> BestSegmentations(
    const SegmentScorer& scorer, int r);

/// Converts spans over `order` into item-label form (items of span s get
/// label s).
cluster::Labels SpansToLabels(const std::vector<Span>& spans,
                              const std::vector<size_t>& order);

}  // namespace topkdup::segment

#endif  // TOPKDUP_SEGMENT_TOPK_DP_H_
