#ifndef TOPKDUP_TOPK_TOPK_QUERY_H_
#define TOPKDUP_TOPK_TOPK_QUERY_H_

#include <vector>

#include "common/metrics.h"
#include "common/query_context.h"
#include "common/status.h"
#include "dedup/pruned_dedup.h"
#include "record/record.h"
#include "topk/pair_scoring.h"

namespace topkdup::topk {

/// One group of a TopK answer: the duplicate records it unifies and their
/// total weight.
struct AnswerGroup {
  double weight = 0.0;
  size_t representative = 0;        // A record id usable as display name.
  std::vector<size_t> members;      // Original record ids.
  /// Count interval [count_lower, count_upper] guaranteed to contain the
  /// group's true duplicate count (weight). On an exact answer both equal
  /// `weight`. On a degraded answer the group may be under-collapsed, so
  /// the true count lies between its observed weight and its §4.3
  /// necessary-predicate upper bound (+inf when even the bound could not
  /// be computed in budget).
  double count_lower = 0.0;
  double count_upper = 0.0;
};

/// How trustworthy a query's answers are after any deadline degradation.
enum class AnswerQuality : int {
  /// Every stage ran to completion; answers are the algorithm's full
  /// output and count intervals are tight ([weight, weight]).
  kExact = 0,
  /// The pipeline stopped mid-stage; answers are synthesized from the
  /// best consistent pipeline state and only the count *intervals* are
  /// guaranteed.
  kBoundsOnly = 1,
  /// The pipeline stopped at a clean boundary (a predicate level not
  /// started, or segmentation-DP thresholds left unexplored): answers
  /// come from a complete but coarser computation.
  kTruncatedLevel = 2,
};

const char* AnswerQualityName(AnswerQuality quality);

/// One of the R plausible TopK answers, highest scoring first.
struct TopKAnswerSet {
  double score = 0.0;
  std::vector<AnswerGroup> groups;  // K groups, by decreasing weight.
  /// Posterior probability of this answer under the Gibbs distribution
  /// over segmentations (§5's "R most probable answers" semantics).
  /// Only populated when TopKCountOptions::compute_posteriors is set;
  /// 0 otherwise.
  double posterior = 0.0;
};

struct TopKCountResult {
  std::vector<TopKAnswerSet> answers;  // Up to R, best first.
  /// Pruning diagnostics (per-level n, m, M, n' — the paper's Fig 2-4).
  dedup::PrunedDedupResult pruning;
  /// True when pruning alone reduced the data to exactly K groups, making
  /// the single returned answer exact without any clustering.
  bool exact_from_pruning = false;
  /// The query's own counter totals, sorted by name: its
  /// metrics::CounterBlock, exact whatever runs concurrently.
  std::vector<metrics::CounterSample> counters;
  /// Degradation verdict for the whole query. kExact unless the deadline
  /// expired somewhere; then `degradation` names the stage that stopped
  /// first and every answer group carries a sound count interval.
  AnswerQuality quality = AnswerQuality::kExact;
  DegradationInfo degradation;
};

/// Most answers (the paper's R) one count query may ask for. The DP is
/// asked for 3·r segmentations, because distinct segmentations can induce
/// the same answer, and it ranks at most 255 of them: r <= ⌊255/3⌋.
inline constexpr int kMaxAnswers = 85;

struct TopKCountOptions {
  int k = 10;
  /// Number of plausible answers to return (the paper's R), in
  /// [1, kMaxAnswers].
  int r = 1;
  int prune_passes = 2;
  /// Linear-embedding aging factor (Eq. 3).
  double embedding_alpha = 0.5;
  /// Max segment length in embedding positions.
  size_t band = 32;
  size_t max_thresholds = 64;
  PairScoringOptions scoring;
  /// Worker threads for the parallel stages (collapse, prune, pair
  /// scoring, segment-score precompute). 0 keeps the process-wide
  /// default; results are identical at any value.
  int threads = 0;
  /// Compute each returned answer's posterior probability by summing the
  /// Gibbs mass of all segmentations consistent with it (exact within the
  /// segmentation space; see segment/posterior.h). Adds O(R * n * band).
  bool compute_posteriors = false;
  /// Gibbs temperature for the posteriors; must be > 0.
  double posterior_temperature = 1.0;
};

/// The paper's end-to-end TopK count query (Algorithm 2 + §5): prune and
/// collapse with the predicate levels, score surviving group pairs with
/// `scorer` on pairs passing the last necessary predicate, embed, and run
/// the segmentation DP for the R highest-scoring TopK answers. The R
/// answers are the distinct answers among the 3·R best segmentations over
/// at most `max_thresholds` candidate weight thresholds (DESIGN.md §6b).
/// The context's recorder, when set, receives the whole query's explain
/// events: the dedup levels, embedding, segmentation DP and answer
/// decomposition. On expiry of the context's deadline the query returns OK
/// with its best partial answer — count intervals per group,
/// `quality != kExact`, and `degradation` naming the stopped stage.
StatusOr<TopKCountResult> TopKCountQuery(
    const record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const PairScoreFn& scorer, const TopKCountOptions& options,
    const QueryContext& context = {});

}  // namespace topkdup::topk

#endif  // TOPKDUP_TOPK_TOPK_QUERY_H_
