#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "cluster/pair_scores.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "embed/linear_embedding.h"
#include "segment/segment_scorer.h"
#include "segment/topk_dp.h"
#include "topk/pair_scoring.h"

namespace topkdup::querybench {

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

using Clock = std::chrono::steady_clock;

/// Wall and process-CPU milliseconds since construction or Restart().
class Stopwatch {
 public:
  Stopwatch() { Restart(); }
  void Restart() {
    wall_ = Clock::now();
    cpu_ = ProcessCpuSeconds();
  }
  double WallMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - wall_)
        .count();
  }
  double CpuMs() const { return 1e3 * (ProcessCpuSeconds() - cpu_); }

 private:
  Clock::time_point wall_;
  double cpu_ = 0.0;
};

/// TopKCountQuery's answer assembly: merge each answer span's groups,
/// order them by weight, and keep the first `r` distinct answers.
/// `*distinct` receives the number of distinct answers among all of
/// `dp_answers`.
std::vector<topk::TopKAnswerSet> AssembleAnswers(
    const std::vector<segment::TopKAnswer>& dp_answers,
    const std::vector<size_t>& order, const std::vector<dedup::Group>& groups,
    int r, size_t* distinct) {
  std::unordered_set<std::string> seen;
  std::vector<topk::TopKAnswerSet> answers;
  for (const segment::TopKAnswer& dp_answer : dp_answers) {
    topk::TopKAnswerSet answer;
    answer.score = dp_answer.score;
    for (const segment::Span& span : dp_answer.answer) {
      topk::AnswerGroup merged;
      double best_weight = -1.0;
      for (size_t p = span.begin; p <= span.end; ++p) {
        const dedup::Group& g = groups[order[p]];
        merged.weight += g.weight;
        merged.members.insert(merged.members.end(), g.members.begin(),
                              g.members.end());
        if (g.weight > best_weight) {
          best_weight = g.weight;
          merged.representative = g.rep;
        }
      }
      merged.count_lower = merged.weight;
      merged.count_upper = merged.weight;
      answer.groups.push_back(std::move(merged));
    }
    std::sort(answer.groups.begin(), answer.groups.end(),
              [](const topk::AnswerGroup& a, const topk::AnswerGroup& b) {
                return a.weight > b.weight;
              });
    std::string signature;
    for (const topk::AnswerGroup& g : answer.groups) {
      std::vector<size_t> members = g.members;
      std::sort(members.begin(), members.end());
      for (size_t m : members) signature += std::to_string(m) + ",";
      signature += '|';
    }
    if (seen.insert(signature).second &&
        answers.size() < static_cast<size_t>(r)) {
      answers.push_back(std::move(answer));
    }
  }
  *distinct = seen.size();
  return answers;
}

}  // namespace

StatusOr<LayeredQuery> RunLayeredQuery(
    const record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const topk::PairScoreFn& scorer, const topk::TopKCountOptions& options) {
  if (levels.empty() || levels.back().necessary == nullptr) {
    return Status::InvalidArgument(
        "RunLayeredQuery: the last level must carry a necessary predicate");
  }
  ScopedParallelism parallelism(options.threads);
  const double threads = static_cast<double>(ParallelismLevel());
  metrics::Registry& registry = metrics::Registry::Global();
  const metrics::MetricsSnapshot before = registry.Snapshot();
  LayeredQuery out;
  std::map<std::string, double>& m = out.metrics;
  Stopwatch total;
  Stopwatch watch;

  // dedup + graph + predicates: Algorithm 2's collapse, CPN bound, prune.
  dedup::PrunedDedupOptions prune_options;
  prune_options.k = options.k;
  prune_options.prune_passes = options.prune_passes;
  TOPKDUP_ASSIGN_OR_RETURN(dedup::PrunedDedupResult pruning,
                           dedup::PrunedDedup(data, levels, prune_options));
  m["dedup.wall_ms"] = watch.WallMs();
  m["dedup.cpu_ms"] = watch.CpuMs();
  double staged_ms = 0.0;
  double blocks_decoded = 0.0;
  double blocks_skipped = 0.0;
  for (const dedup::LevelStats& level : pruning.levels) {
    m["dedup.collapse_ms"] += 1e3 * level.collapse_seconds;
    m["dedup.lower_bound_ms"] += 1e3 * level.lower_bound_seconds;
    m["dedup.prune_ms"] += 1e3 * level.prune_seconds;
    staged_ms += 1e3 * (level.collapse_seconds + level.lower_bound_seconds +
                        level.prune_seconds);
    m["dedup.records_collapsed"] +=
        static_cast<double>(level.records_collapsed);
    m["dedup.groups_pruned"] += static_cast<double>(level.groups_pruned);
    m["graph.cpn_iterations"] +=
        static_cast<double>(level.cpn_growth_iterations);
    m["graph.cpn_edges"] += static_cast<double>(level.cpn_edges_examined);
    m["predicates.blocking_probes"] +=
        static_cast<double>(level.blocking_probes);
    m["predicates.predicate_evals"] +=
        static_cast<double>(level.predicate_evals);
    m["predicates.postings_decoded"] +=
        static_cast<double>(level.postings_decoded);
    blocks_decoded += static_cast<double>(level.blocks_decoded);
    blocks_skipped += static_cast<double>(level.blocks_skipped);
  }
  m["dedup.unattributed_ms"] = m["dedup.wall_ms"] - staged_ms;
  m["dedup.n_prime"] = static_cast<double>(pruning.groups.size());
  m["predicates.block_skip_ratio"] =
      blocks_decoded + blocks_skipped > 0.0
          ? blocks_skipped / (blocks_decoded + blocks_skipped)
          : 0.0;

  const std::vector<dedup::Group>& groups = pruning.groups;
  if (pruning.exact) {
    // Pruning alone isolated exactly K groups: no post-prune layer runs.
    topk::TopKAnswerSet answer;
    for (const dedup::Group& g : groups) {
      answer.groups.push_back(
          {g.weight, g.rep, g.members, g.weight, g.weight});
    }
    out.answers.push_back(std::move(answer));
  } else {
    if (groups.size() < static_cast<size_t>(options.k)) {
      return Status::FailedPrecondition(
          "RunLayeredQuery: fewer candidate groups than K");
    }
    // topk + sim + cluster: score the pairs passing the last N_L.
    metrics::Counter* calls =
        registry.GetCounter("querybench.scorer_calls");
    metrics::Counter* positives =
        registry.GetCounter("querybench.scorer_positives");
    const uint64_t calls_before = calls->Value();
    const uint64_t positives_before = positives->Value();
    const topk::PairScoreFn counting = [&](size_t a, size_t b) {
      const double score = scorer(a, b);
      calls->Increment();
      if (score > 0.0) positives->Increment();
      return score;
    };
    watch.Restart();
    auto scores = std::make_unique<cluster::PairScores>(
        topk::BuildGroupPairScores(groups, *levels.back().necessary, counting,
                                   options.scoring));
    m["topk.pair_scoring_ms"] = watch.WallMs();
    m["topk.pair_scoring_cpu_ms"] = watch.CpuMs();
    m["topk.pair_scoring_par_eff"] =
        m["topk.pair_scoring_ms"] > 0.0
            ? m["topk.pair_scoring_cpu_ms"] /
                  (m["topk.pair_scoring_ms"] * threads)
            : 0.0;
    const double scorer_calls =
        static_cast<double>(calls->Value() - calls_before);
    m["sim.scorer_calls"] = scorer_calls;
    m["sim.positive_ratio"] =
        scorer_calls > 0.0
            ? static_cast<double>(positives->Value() - positives_before) /
                  scorer_calls
            : 0.0;
    m["cluster.pairs_stored"] =
        static_cast<double>(scores->stored_pair_count());

    // embed: §5.3.1 greedy linear embedding.
    std::vector<double> weights(groups.size());
    for (size_t i = 0; i < groups.size(); ++i) weights[i] = groups[i].weight;
    embed::GreedyEmbeddingOptions embed_options;
    embed_options.alpha = options.embedding_alpha;
    watch.Restart();
    const std::vector<size_t> order =
        embed::GreedyEmbedding(*scores, weights, embed_options);
    m["embed.greedy_ms"] = watch.WallMs();
    m["embed.items"] = static_cast<double>(order.size());

    // segment: §5.3.2 segment-score fill, then the AnsR DP.
    watch.Restart();
    const segment::SegmentScorer seg_scorer(
        *scores, order, options.band,
        segment::SegmentScorer::Objective::kSumPositive);
    m["segment.fill_ms"] = watch.WallMs();
    m["segment.fill_cpu_ms"] = watch.CpuMs();
    m["segment.cells_filled"] = static_cast<double>(seg_scorer.cells_filled());
    segment::TopKDpOptions dp_options;
    dp_options.k = options.k;
    dp_options.r = options.r * 3;  // TopKCountQuery's over-request.
    dp_options.band = options.band;
    dp_options.max_thresholds = options.max_thresholds;
    watch.Restart();
    TOPKDUP_ASSIGN_OR_RETURN(
        std::vector<segment::TopKAnswer> dp_answers,
        segment::TopKSegmentation(seg_scorer, order, weights, dp_options));
    m["segment.dp_ms"] = watch.WallMs();
    m["segment.dp_answers"] = static_cast<double>(dp_answers.size());

    size_t distinct = 0;
    out.answers =
        AssembleAnswers(dp_answers, order, groups, options.r, &distinct);
    m["topk.answers_distinct_ratio"] =
        dp_answers.empty() ? 0.0
                           : static_cast<double>(distinct) /
                                 static_cast<double>(dp_answers.size());
    watch.Restart();
    scores.reset();
    m["cluster.pair_scores_free_ms"] = watch.WallMs();
  }
  out.wall_ms = total.WallMs();
  const metrics::MetricsSnapshot delta =
      metrics::MetricsSnapshot::Delta(before, registry.Snapshot());
  m["parallel.regions"] =
      static_cast<double>(delta.CounterValue("parallel.regions"));
  m["parallel.shards"] =
      static_cast<double>(delta.CounterValue("parallel.shards"));
  return out;
}

}  // namespace topkdup::querybench
