#include "dedup/pruned_dedup.h"

#include <memory>
#include <string>
#include <utility>

#include "common/log.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "dedup/collapse.h"

namespace topkdup::dedup {

namespace {

/// Counters whose per-level deltas populate LevelStats. Reading a striped
/// counter is a 16-load sum, so bracketing every stage is effectively
/// free.
struct StageCounters {
  metrics::Counter* blocking_probes;
  metrics::Counter* collapse_evals;
  metrics::Counter* lower_bound_evals;
  metrics::Counter* prune_evals;
  metrics::Counter* postings_scanned;
  metrics::Counter* postings_decoded;
  metrics::Counter* blocks_decoded;
  metrics::Counter* blocks_skipped;

  static const StageCounters& Get() {
    auto& registry = metrics::Registry::Global();
    static const StageCounters counters = {
        registry.GetCounter("predicates.blocked_index.candidates"),
        registry.GetCounter("dedup.collapse.pair_evals"),
        registry.GetCounter("dedup.lower_bound.pair_evals"),
        registry.GetCounter("dedup.prune.pair_evals"),
        registry.GetCounter("predicates.blocked_index.postings_scanned"),
        registry.GetCounter("predicates.blocked_index.postings_decoded"),
        registry.GetCounter("predicates.blocked_index.blocks_decoded"),
        registry.GetCounter("predicates.blocked_index.blocks_skipped"),
    };
    return counters;
  }

  uint64_t TotalEvals() const {
    return collapse_evals->Value() + lower_bound_evals->Value() +
           prune_evals->Value();
  }
};

}  // namespace

StatusOr<PrunedDedupResult> PrunedDedupFromGroups(
    std::vector<Group> groups, const std::vector<PredicateLevel>& levels,
    const PrunedDedupOptions& options) {
  if (options.k < 1) {
    return Status::InvalidArgument("PrunedDedup: k must be >= 1");
  }
  if (options.prune_passes < 1) {
    return Status::InvalidArgument("PrunedDedup: prune_passes must be >= 1");
  }
  if (levels.empty()) {
    return Status::InvalidArgument("PrunedDedup: at least one level");
  }
  ScopedParallelism parallelism(options.threads);
  const Deadline* deadline = options.deadline;
  const StageCounters& counters = StageCounters::Get();
  const metrics::MetricsSnapshot snapshot_before =
      metrics::Registry::Global().Snapshot();
  trace::Span pipeline_span("dedup.pruned_dedup");
  pipeline_span.AddArg("k", options.k);
  pipeline_span.AddArg("levels", static_cast<int64_t>(levels.size()));
  pipeline_span.AddArg("groups_in", static_cast<int64_t>(groups.size()));
  if (options.query_id != 0) {
    pipeline_span.AddArg("query_id",
                         static_cast<int64_t>(options.query_id));
  }

  // The recorder is owned here unless the caller (e.g. TopKCountQuery)
  // supplied one to compose a whole-query report.
  std::unique_ptr<obs::ExplainRecorder> owned_recorder;
  obs::ExplainRecorder* recorder = options.explain_recorder;
  if (recorder == nullptr && options.explain) {
    owned_recorder =
        std::make_unique<obs::ExplainRecorder>(options.explain_sample_rate);
    if (options.query_id != 0) {
      owned_recorder->set_query_id(options.query_id);
    }
    recorder = owned_recorder.get();
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
    trace::Span level_span("dedup.level");
    level_span.AddArg("level", static_cast<int64_t>(level_index));
    const uint64_t probes_before = counters.blocking_probes->Value();
    const uint64_t evals_before = counters.TotalEvals();
    const uint64_t scanned_before = counters.postings_scanned->Value();
    const uint64_t decoded_before = counters.postings_decoded->Value();
    const uint64_t dblocks_before = counters.blocks_decoded->Value();
    const uint64_t sblocks_before = counters.blocks_skipped->Value();
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
      groups = Collapse(groups, *level.sufficient, recorder, deadline,
                        options.index_cache);
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
      LowerBoundOptions lb_options = options.lower_bound;
      lb_options.recorder = recorder;
      lb_options.deadline = deadline;
      lb_options.index_cache = options.index_cache;
      const LowerBoundResult lb =
          EstimateLowerBound(groups, *level.necessary, options.k,
                             lb_options);
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
        PruneOptions prune_options;
        prune_options.passes = options.prune_passes;
        prune_options.recorder = recorder;
        prune_options.deadline = deadline;
        prune_options.index_cache = options.index_cache;
        PruneResult pruned = PruneGroups(groups, *level.necessary, lb.M,
                                         prune_options, options.exact_bounds);
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
    stats.blocking_probes = counters.blocking_probes->Value() - probes_before;
    stats.predicate_evals = counters.TotalEvals() - evals_before;
    stats.postings_scanned =
        counters.postings_scanned->Value() - scanned_before;
    stats.postings_decoded =
        counters.postings_decoded->Value() - decoded_before;
    stats.blocks_decoded = counters.blocks_decoded->Value() - dblocks_before;
    stats.blocks_skipped = counters.blocks_skipped->Value() - sblocks_before;
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
  result.metrics = metrics::MetricsSnapshot::Delta(
      snapshot_before, metrics::Registry::Global().Snapshot());
  if (owned_recorder != nullptr) {
    result.explain = std::make_shared<const obs::ExplainReport>(
        owned_recorder->Finish());
  }
  return result;
}

StatusOr<PrunedDedupResult> PrunedDedup(
    const record::Dataset& data, const std::vector<PredicateLevel>& levels,
    const PrunedDedupOptions& options) {
  return PrunedDedupFromGroups(MakeSingletonGroups(data), levels, options);
}

}  // namespace topkdup::dedup
