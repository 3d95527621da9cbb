#include "dedup/pruned_dedup.h"

#include <string>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "dedup/collapse.h"
#include "dedup/lower_bound.h"
#include "dedup/prune.h"
#include "obs/explain.h"

namespace topkdup::dedup {

StatusOr<PrunedDedupResult> PrunedDedup(
    const record::Dataset& data, const std::vector<PredicateLevel>& levels,
    const PrunedDedupOptions& options, const QueryContext& context) {
  if (options.k < 1) {
    return Status::InvalidArgument("PrunedDedup: k must be >= 1");
  }
  if (options.prune_passes < 1) {
    return Status::InvalidArgument("PrunedDedup: prune_passes must be >= 1");
  }
  if (levels.empty()) {
    return Status::InvalidArgument("PrunedDedup: at least one level");
  }
  std::vector<Group> groups = MakeSingletonGroups(data);
  const Deadline* deadline = context.deadline;
  obs::ExplainRecorder* recorder = context.recorder;
  trace::Span pipeline_span("dedup.pruned_dedup");
  pipeline_span.AddArg("k", options.k);
  pipeline_span.AddArg("levels", static_cast<int64_t>(levels.size()));
  pipeline_span.AddArg("groups_in", static_cast<int64_t>(groups.size()));
  if (context.query_id != 0) {
    pipeline_span.AddArg("query_id", static_cast<int64_t>(context.query_id));
  }

  PrunedDedupResult result;
  result.upper_bounds.assign(groups.size(), 0.0);

  for (size_t level_index = 0; level_index < levels.size(); ++level_index) {
    const PredicateLevel& level = levels[level_index];
    const int level_1based = static_cast<int>(level_index) + 1;
    // Level boundary: stopping here leaves the previous level's output —
    // a complete, consistent pipeline state — as the answer.
    if (deadline != nullptr && deadline->Expired()) {
      MarkDegraded(*deadline, "collapse", level_1based,
                   /*partial_stage=*/false, &result.degradation);
      break;
    }
    LevelStats stats;
    // Tallies this level's counter increments, on this thread and on the
    // pool workers its regions fan out to; folds into the enclosing block
    // (or the registry) when the iteration ends.
    const metrics::CounterBlock level_counters;
    trace::Span level_span("dedup.level");
    level_span.AddArg("level", static_cast<int64_t>(level_index));
    const size_t groups_before = groups.size();
    if (recorder != nullptr) {
      recorder->BeginLevel(
          level.sufficient != nullptr ? std::string(level.sufficient->name())
                                      : std::string(),
          level.necessary != nullptr ? std::string(level.necessary->name())
                                     : std::string(),
          level.necessary != nullptr);
    }
    Timer timer;
    bool stopped = false;

    if (level.sufficient != nullptr) {
      groups = Collapse(groups, *level.sufficient, context);
      if (deadline != nullptr && deadline->Expired()) {
        // The closure may be missing edges from skipped shards: a valid
        // but under-collapsed partition. Bounds from previous levels no
        // longer align with these groups.
        MarkDegraded(*deadline, "collapse", level_1based,
                     /*partial_stage=*/true, &result.degradation);
        result.upper_bounds.clear();
        result.upper_bounds_unconditional = false;
        stopped = true;
      }
    } else if (recorder != nullptr) {
      recorder->RecordCollapseSummary(groups_before, groups_before);
    }
    stats.collapse_seconds = timer.ElapsedSeconds();
    stats.n_after_collapse = groups.size();
    stats.records_collapsed = groups_before - groups.size();

    if (!stopped && level.necessary != nullptr) {
      timer.Reset();
      // One necessary index over the collapsed groups' representatives
      // serves both the lower bound and the prune. Its build is timed and
      // charged as the lower bound's, the stage that reads it first.
      const predicates::IndexHandle necessary_index = [&] {
        trace::Span index_span("dedup.necessary_index");
        return RepresentativeIndex(groups, *level.necessary,
                                   context.index_cache);
      }();
      const LowerBoundResult lb = EstimateLowerBound(
          groups, *level.necessary, *necessary_index, options.k, context);
      stats.lower_bound_seconds = timer.ElapsedSeconds();
      stats.m = lb.m;
      stats.M = lb.M;
      stats.cpn_growth_iterations = lb.cpn_evaluations;
      stats.cpn_edges_examined = lb.edges_examined;
      if (lb.degraded || (deadline != nullptr && deadline->Expired())) {
        // Collapse at this level completed, so the groups are a fully
        // collapsed partition; only the search for (m, M) stopped early.
        // Previous-level bounds no longer align with the new partition.
        MarkDegraded(*deadline, "lower_bound", level_1based,
                     /*partial_stage=*/lb.degraded, &result.degradation);
        result.upper_bounds.clear();
        result.upper_bounds_unconditional = false;
        stopped = true;
      }

      if (!stopped) {
        timer.Reset();
        PruneResult pruned = PruneGroups(
            groups, *level.necessary, *necessary_index, lb.M,
            {.passes = options.prune_passes}, options.exact_bounds, context);
        stats.prune_seconds = timer.ElapsedSeconds();
        stats.groups_pruned = groups.size() - pruned.groups.size();
        groups = std::move(pruned.groups);
        result.upper_bounds = std::move(pruned.upper_bounds);
        result.upper_bounds_unconditional = pruned.unconditional_bounds;
        if (pruned.degraded ||
            (deadline != nullptr && deadline->Expired())) {
          // A degraded prune only under-prunes; its survivors and bounds
          // are consistent, so they stand as the final state. Only a
          // mid-pass shard skip makes the stage itself partial — a stop
          // at a between-pass boundary (or a budget exhausted during the
          // final pass) leaves a cleanly completed prune state.
          MarkDegraded(*deadline, "prune", level_1based,
                       /*partial_stage=*/pruned.pass_skipped,
                       &result.degradation);
          stopped = true;
        }
      }
    } else if (!stopped) {
      stats.m = groups.size();
      stats.M = groups.empty() ? 0.0 : groups.back().weight;
      result.upper_bounds.assign(groups.size(), 0.0);
      result.upper_bounds_unconditional = false;
    }
    stats.n_after_prune = groups.size();
    stats.blocking_probes =
        level_counters.Value("predicates.blocked_index.candidates");
    stats.predicate_evals =
        level_counters.Value("dedup.collapse.pair_evals") +
        level_counters.Value("dedup.lower_bound.pair_evals") +
        level_counters.Value("dedup.prune.pair_evals");
    stats.postings_scanned =
        level_counters.Value("predicates.blocked_index.postings_scanned");
    stats.postings_decoded =
        level_counters.Value("predicates.blocked_index.postings_decoded");
    stats.blocks_decoded =
        level_counters.Value("predicates.blocked_index.blocks_decoded");
    stats.blocks_skipped =
        level_counters.Value("predicates.blocked_index.blocks_skipped");
    TOPKDUP_LOG(Debug) << "PrunedDedup level " << level_index
                       << ": n=" << stats.n_after_collapse
                       << " m=" << stats.m << " M=" << stats.M
                       << " n'=" << stats.n_after_prune
                       << " collapsed=" << stats.records_collapsed
                       << " pruned=" << stats.groups_pruned
                       << " probes=" << stats.blocking_probes
                       << " evals=" << stats.predicate_evals;
    result.levels.push_back(stats);
    if (stopped) break;

    if (groups.size() == static_cast<size_t>(options.k)) {
      result.exact = true;
      break;
    }
  }

  result.groups = std::move(groups);
  if (result.degradation.degraded && recorder != nullptr) {
    recorder->RecordDegradation(result.degradation);
  }
  pipeline_span.AddArg("groups_out",
                       static_cast<int64_t>(result.groups.size()));
  return result;
}

}  // namespace topkdup::dedup
