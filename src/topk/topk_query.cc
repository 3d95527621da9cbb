#include "topk/topk_query.h"

#include <cmath>
#include <algorithm>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/parallel.h"
#include "common/strings.h"
#include "common/trace.h"
#include "embed/linear_embedding.h"
#include "obs/explain.h"
#include "segment/posterior.h"
#include "segment/segment_scorer.h"
#include "segment/topk_dp.h"

namespace topkdup::topk {

namespace {

AnswerGroup MergeSpan(const segment::Span& span,
                      const std::vector<size_t>& order,
                      const std::vector<dedup::Group>& groups) {
  AnswerGroup out;
  double best_weight = -1.0;
  for (size_t p = span.begin; p <= span.end; ++p) {
    const dedup::Group& g = groups[order[p]];
    out.weight += g.weight;
    out.members.insert(out.members.end(), g.members.begin(),
                       g.members.end());
    if (g.weight > best_weight) {
      best_weight = g.weight;
      out.representative = g.rep;
    }
  }
  return out;
}

/// Synthesizes the best bound-carrying answer available once the pipeline
/// can no longer run the clustering stages: the K heaviest dedup groups,
/// each with the sound count interval [observed weight, §4.3 upper bound].
/// Pruning's final-pass bounds are reused only when they are unconditional
/// (exact single-pass — an early-exit-truncated or survivor-restricted
/// multi-pass sum proves "> M", not a cap on the true count) and still
/// align with `groups`; otherwise the first-pass bounds are recomputed for
/// just the K answer groups (urgent-skipped groups fall back to +inf, a
/// valid if useless bound).
TopKAnswerSet SynthesizeBoundedAnswer(
    const dedup::PrunedDedupResult& pruning,
    const predicates::PairPredicate& necessary, int k,
    const QueryContext& context) {
  const Deadline* deadline = context.deadline;
  obs::ExplainRecorder* recorder = context.recorder;
  const std::vector<dedup::Group>& groups = pruning.groups;
  const size_t count =
      std::min(groups.size(), static_cast<size_t>(std::max(k, 0)));
  std::vector<double> upper(count,
                            std::numeric_limits<double>::infinity());
  if (pruning.upper_bounds_unconditional &&
      pruning.upper_bounds.size() == groups.size()) {
    for (size_t i = 0; i < count; ++i) upper[i] = pruning.upper_bounds[i];
  } else if (count > 0) {
    std::vector<size_t> indices(count);
    for (size_t i = 0; i < count; ++i) indices[i] = i;
    // A latched work-budget expiry would urgent-skip every shard below
    // (expiry is latched, and urgent checks honor the latch), leaving
    // only +inf bounds; this K-group recomputation is small, bounded,
    // and thread-count deterministic, so it runs unmetered. Wall-clock
    // expiry keeps the deadline — the prompt-return guarantee outranks
    // bound tightness there.
    QueryContext recompute = context;
    if (deadline != nullptr &&
        deadline->reason() == DeadlineReason::kWorkBudget) {
      recompute.deadline = nullptr;
    }
    upper = dedup::ComputeGroupUpperBounds(groups, necessary, indices,
                                           recompute);
  }

  TopKAnswerSet answer;
  obs::AnswerExplain answer_explain;
  for (size_t i = 0; i < count; ++i) {
    const dedup::Group& g = groups[i];
    AnswerGroup ag;
    ag.weight = g.weight;
    ag.representative = g.rep;
    ag.members = g.members;
    ag.count_lower = g.weight;
    ag.count_upper = std::max(upper[i], g.weight);
    if (recorder != nullptr) {
      // No embedding ran: spans and segment scores do not exist.
      answer_explain.groups.push_back(
          {ag.weight, ag.representative, ag.members.size(), 0, 0, 0.0});
    }
    answer.groups.push_back(std::move(ag));
  }
  if (recorder != nullptr) {
    answer_explain.rank = 1;
    recorder->RecordAnswer(std::move(answer_explain));
  }
  return answer;
}

}  // namespace

const char* AnswerQualityName(AnswerQuality quality) {
  switch (quality) {
    case AnswerQuality::kExact:
      return "exact";
    case AnswerQuality::kBoundsOnly:
      return "bounds_only";
    case AnswerQuality::kTruncatedLevel:
      return "truncated_level";
  }
  return "unknown";
}

StatusOr<TopKCountResult> TopKCountQuery(
    const record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const PairScoreFn& scorer, const TopKCountOptions& options,
    const QueryContext& context) {
  if (levels.empty() || levels.back().necessary == nullptr) {
    return Status::InvalidArgument(
        "TopKCountQuery: the last level must carry a necessary predicate");
  }
  if (options.k < 1) {
    return Status::InvalidArgument("TopKCountQuery: k must be >= 1");
  }
  if (options.r < 1) {
    return Status::InvalidArgument("TopKCountQuery: r must be >= 1");
  }
  if (options.r > kMaxAnswers) {
    return Status::InvalidArgument(StrFormat(
        "TopKCountQuery: r must be <= %d", kMaxAnswers));
  }
  if (!(options.embedding_alpha > 0.0 && options.embedding_alpha <= 1.0)) {
    return Status::InvalidArgument(
        "TopKCountQuery: embedding_alpha must be in (0, 1]");
  }
  if (options.compute_posteriors &&
      !(options.posterior_temperature > 0.0)) {
    return Status::InvalidArgument(
        "TopKCountQuery: posterior_temperature must be > 0");
  }
  if (!(options.scoring.default_score <= 0.0)) {
    return Status::InvalidArgument(
        "TopKCountQuery: scoring.default_score must be <= 0");
  }
  if (!scorer) {
    return Status::InvalidArgument("TopKCountQuery: scorer must be set");
  }
  if (data.size() == 0) {
    return Status::InvalidArgument("TopKCountQuery: dataset is empty");
  }
  if (data.size() < static_cast<size_t>(options.k)) {
    return Status::InvalidArgument(StrFormat(
        "TopKCountQuery: k=%d exceeds the %zu records in the dataset",
        options.k, data.size()));
  }
  for (size_t i = 0; i < data.size(); ++i) {
    const double w = data[i].weight;
    if (std::isnan(w) || w < 0.0) {
      return Status::InvalidArgument(StrFormat(
          "TopKCountQuery: record %zu has invalid weight %g", i, w));
    }
  }
  ScopedParallelism parallelism(options.threads);
  // Tallies every counter increment of the query, on this thread and on
  // the pool workers its regions fan out to; folds into the registry (or
  // an enclosing block) when the query returns.
  const metrics::CounterBlock counters;
  const Deadline* deadline = context.deadline;
  trace::Span query_span("topk.query");
  query_span.AddArg("k", options.k);
  query_span.AddArg("r", options.r);
  if (context.query_id != 0) {
    query_span.AddArg("query_id", static_cast<int64_t>(context.query_id));
  }
  // One recorder spans the whole query: the dedup levels feed it, then
  // embedding/DP/answers append their sections.
  obs::ExplainRecorder* recorder = context.recorder;
  dedup::PrunedDedupOptions prune_options;
  prune_options.k = options.k;
  prune_options.prune_passes = options.prune_passes;
  TOPKDUP_ASSIGN_OR_RETURN(
      dedup::PrunedDedupResult pruning,
      dedup::PrunedDedup(data, levels, prune_options, context));

  TopKCountResult result;
  const predicates::PairPredicate& necessary = *levels.back().necessary;
  if (pruning.degradation.degraded) {
    // The dedup pipeline stopped early. Its groups are a valid (possibly
    // under-collapsed, under-pruned) partition; the K heaviest carry the
    // answer, each with a count interval guaranteed to contain its true
    // duplicate count. A stop at a level boundary left a complete
    // coarser computation; a mid-stage stop only guarantees the bounds.
    result.quality = (pruning.degradation.stage == "collapse" &&
                      !pruning.degradation.partial_stage)
                         ? AnswerQuality::kTruncatedLevel
                         : AnswerQuality::kBoundsOnly;
    result.degradation = pruning.degradation;
    result.answers.push_back(SynthesizeBoundedAnswer(
        pruning, necessary, options.k, context));
    result.pruning = std::move(pruning);
    result.counters = counters.Samples();
    return result;
  }
  if (pruning.exact) {
    // Pruning alone isolated exactly K groups: one certain answer.
    TopKAnswerSet answer;
    obs::AnswerExplain answer_explain;
    for (const dedup::Group& g : pruning.groups) {
      AnswerGroup ag;
      ag.weight = g.weight;
      ag.representative = g.rep;
      ag.members = g.members;
      ag.count_lower = g.weight;
      ag.count_upper = g.weight;
      if (recorder != nullptr) {
        // No embedding ran, so there are no spans or segment scores.
        answer_explain.groups.push_back(
            {ag.weight, ag.representative, ag.members.size(), 0, 0, 0.0});
      }
      answer.groups.push_back(std::move(ag));
    }
    result.answers.push_back(std::move(answer));
    result.exact_from_pruning = true;
    result.pruning = std::move(pruning);
    if (recorder != nullptr) {
      answer_explain.rank = 1;
      recorder->RecordAnswer(std::move(answer_explain));
    }
    result.counters = counters.Samples();
    return result;
  }

  const std::vector<dedup::Group>& groups = pruning.groups;
  if (groups.size() < static_cast<size_t>(options.k)) {
    return Status::FailedPrecondition(
        "TopKCountQuery: fewer candidate groups than K");
  }

  // Step 9 of Algorithm 2: score pairs passing N_L.
  cluster::PairScores scores = BuildGroupPairScores(
      groups, necessary, scorer, options.scoring, context);
  if (deadline != nullptr && deadline->Expired()) {
    MarkDegraded(*deadline, "pair_scoring", /*level=*/0,
                 /*partial_stage=*/true, &result.degradation);
    result.quality = AnswerQuality::kBoundsOnly;
    if (recorder != nullptr) {
      recorder->RecordDegradation(result.degradation);
    }
    result.answers.push_back(SynthesizeBoundedAnswer(
        pruning, necessary, options.k, context));
    result.pruning = std::move(pruning);
    result.counters = counters.Samples();
    return result;
  }

  // §5.3: embed, score segments, run the DP.
  std::vector<double> weights(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) weights[i] = groups[i].weight;
  embed::GreedyEmbeddingOptions embed_options;
  embed_options.alpha = options.embedding_alpha;
  embed_options.recorder = recorder;
  const std::vector<size_t> order = [&] {
    TOPKDUP_TRACE_SPAN("embed.greedy");
    return embed::GreedyEmbedding(scores, weights, embed_options);
  }();

  segment::SegmentScorer seg_scorer(
      scores, order, options.band,
      segment::SegmentScorer::Objective::kSumPositive, deadline);
  trace::Span dp_span("segment.topk_dp");
  segment::TopKDpOptions dp_options;
  dp_options.k = options.k;
  // Over-request: distinct segmentations may collapse to the same answer
  // after the remainder is discarded.
  dp_options.r = options.r * 3;
  dp_options.band = options.band;
  dp_options.max_thresholds = options.max_thresholds;
  dp_options.deadline = deadline;
  TOPKDUP_ASSIGN_OR_RETURN(
      std::vector<segment::TopKAnswer> dp_answers,
      segment::TopKSegmentation(seg_scorer, order, weights, dp_options));
  dp_span.AddArg("answers", static_cast<int64_t>(dp_answers.size()));
  if (deadline != nullptr && (deadline->expired() || seg_scorer.degraded())) {
    MarkDegraded(*deadline, "segment_dp", /*level=*/0,
                 /*partial_stage=*/seg_scorer.degraded() ||
                     dp_answers.empty(),
                 &result.degradation);
    if (recorder != nullptr) {
      recorder->RecordDegradation(result.degradation);
    }
    if (seg_scorer.degraded() || dp_answers.empty()) {
      // The score table is partial (or no threshold finished its DP):
      // segmentation output would not be meaningful, so fall back to the
      // bound-carrying dedup answer.
      result.quality = AnswerQuality::kBoundsOnly;
      result.answers.push_back(SynthesizeBoundedAnswer(
          pruning, necessary, options.k, context));
      result.pruning = std::move(pruning);
      result.counters = counters.Samples();
      return result;
    }
    // Dedup and the score table are complete; only the DP's threshold
    // exploration was cut short. The answers below come from a complete
    // but less exhaustive search.
    result.quality = AnswerQuality::kTruncatedLevel;
  }
  if (recorder != nullptr) {
    obs::SegmentDpExplain dp_explain;
    dp_explain.rows = seg_scorer.size();
    dp_explain.band = seg_scorer.band();
    dp_explain.cells_filled = seg_scorer.cells_filled();
    dp_explain.answers_found = dp_answers.size();
    // Boundaries are the inclusive span ends of the full segmentation.
    if (!dp_answers.empty()) {
      for (const segment::Span& s : dp_answers[0].segmentation) {
        dp_explain.best_boundaries.push_back(s.end);
      }
    }
    if (dp_answers.size() > 1) {
      for (const segment::Span& s : dp_answers[1].segmentation) {
        dp_explain.runner_up_boundaries.push_back(s.end);
      }
    }
    recorder->RecordSegmentDp(std::move(dp_explain));
  }

  // Distinct segmentations can induce identical K answer groups (they
  // differ only in how the non-answer remainder is segmented); the user
  // asked for R distinct *answers*, so dedupe on the answer groups.
  std::unordered_set<std::string> seen_answers;
  const double log_z =
      options.compute_posteriors
          ? segment::LogPartitionFunction(
                seg_scorer, {.temperature = options.posterior_temperature})
          : 0.0;
  for (const segment::TopKAnswer& dp_answer : dp_answers) {
    // Keep each merged group tagged with its source span so the explain
    // decomposition still knows the embedding positions after the
    // weight-descending sort.
    std::vector<std::pair<AnswerGroup, segment::Span>> tagged;
    tagged.reserve(dp_answer.answer.size());
    for (const segment::Span& span : dp_answer.answer) {
      tagged.emplace_back(MergeSpan(span, order, groups), span);
    }
    std::sort(tagged.begin(), tagged.end(),
              [](const std::pair<AnswerGroup, segment::Span>& a,
                 const std::pair<AnswerGroup, segment::Span>& b) {
                return a.first.weight > b.first.weight;
              });
    TopKAnswerSet answer;
    answer.score = dp_answer.score;
    std::vector<obs::AnswerGroupExplain> group_explains;
    for (auto& [group, span] : tagged) {
      if (recorder != nullptr) {
        group_explains.push_back({group.weight, group.representative,
                                  group.members.size(), span.begin, span.end,
                                  seg_scorer.Score(span.begin, span.end)});
      }
      // Dedup completed, so the merged span weight is the answer's count
      // claim; the interval is tight whether or not the DP's threshold
      // exploration was truncated.
      group.count_lower = group.weight;
      group.count_upper = group.weight;
      answer.groups.push_back(std::move(group));
    }
    std::string signature;
    for (const AnswerGroup& g : answer.groups) {
      std::vector<size_t> members = g.members;
      std::sort(members.begin(), members.end());
      for (size_t m : members) {
        signature += std::to_string(m);
        signature += ',';
      }
      signature += '|';
    }
    if (seen_answers.insert(signature).second &&
        result.answers.size() < static_cast<size_t>(options.r)) {
      if (options.compute_posteriors) {
        auto mass = segment::LogAnswerMass(
            seg_scorer, order, weights, dp_answer,
            {.temperature = options.posterior_temperature});
        if (mass.ok()) {
          answer.posterior = std::exp(mass.value() - log_z);
        }
      }
      if (recorder != nullptr) {
        obs::AnswerExplain answer_explain;
        answer_explain.rank =
            static_cast<int>(result.answers.size()) + 1;
        answer_explain.score = answer.score;
        answer_explain.threshold = dp_answer.threshold;
        answer_explain.posterior = answer.posterior;
        answer_explain.groups = std::move(group_explains);
        recorder->RecordAnswer(std::move(answer_explain));
      }
      result.answers.push_back(std::move(answer));
    }
  }
  result.pruning = std::move(pruning);
  result.counters = counters.Samples();
  return result;
}

}  // namespace topkdup::topk
