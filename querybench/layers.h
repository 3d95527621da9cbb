// TopKCountQuery recomposed from the public entry point of each layer, so
// the traced run can time and count every layer from outside the library.
#ifndef TOPKDUP_QUERYBENCH_LAYERS_H_
#define TOPKDUP_QUERYBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "dedup/pruned_dedup.h"
#include "record/record.h"
#include "topk/topk_query.h"

namespace topkdup::querybench {

/// One traced query: its answers (which must equal TopKCountQuery's on the
/// same inputs) and one value per layer metric, keyed by the metric names
/// of BENCHMARK.json's per_layer list (times in ms). Layers the query did
/// not reach (all post-prune ones when pruning alone isolated k groups)
/// have no entry.
struct LayeredQuery {
  std::vector<topk::TopKAnswerSet> answers;
  std::map<std::string, double> metrics;
  /// Wall time of the whole recomposed query.
  double wall_ms = 0.0;
};

/// Runs PrunedDedup -> BuildGroupPairScores -> GreedyEmbedding ->
/// SegmentScorer -> TopKSegmentation, assembles the answers exactly as
/// TopKCountQuery does, then frees the PairScores. Honors k, r,
/// prune_passes, embedding_alpha, band, max_thresholds, scoring and
/// threads of `options`; ignores deadlines, explain and posteriors.
StatusOr<LayeredQuery> RunLayeredQuery(
    const record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const topk::PairScoreFn& scorer, const topk::TopKCountOptions& options);

/// Process CPU seconds (all threads, user + system).
double ProcessCpuSeconds();

}  // namespace topkdup::querybench

#endif  // TOPKDUP_QUERYBENCH_LAYERS_H_
