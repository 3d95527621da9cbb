#ifndef TOPKDUP_DEDUP_PRUNED_DEDUP_H_
#define TOPKDUP_DEDUP_PRUNED_DEDUP_H_

#include <cstddef>
#include <vector>

#include "common/deadline.h"
#include "common/query_context.h"
#include "common/status.h"
#include "dedup/group.h"
#include "dedup/prune.h"
#include "predicates/pair_predicate.h"
#include "record/record.h"

namespace topkdup::dedup {

/// One (sufficient, necessary) predicate pair of increasing cost and
/// tightness (the (S_l, N_l) of Algorithm 2). Either may be null: a null
/// sufficient predicate skips the collapse step, a null necessary predicate
/// skips lower-bound estimation and pruning for that level.
struct PredicateLevel {
  const predicates::PairPredicate* sufficient = nullptr;
  const predicates::PairPredicate* necessary = nullptr;
};

/// Per-level statistics matching the columns of the paper's Figures 2-4,
/// plus the work counters behind them (how much each predicate level
/// avoided: records collapsed away, groups pruned against M, predicate and
/// blocking probes actually paid for). The work counters are the level's
/// metrics::CounterBlock totals: exact whatever runs concurrently.
struct LevelStats {
  size_t n_after_collapse = 0;  // n:  groups after collapsing with S_l.
  size_t m = 0;                 // m:  prefix rank certifying K entities.
  double M = 0.0;               // M:  lower bound on the K-th group weight.
  size_t n_after_prune = 0;     // n': groups surviving the prune.
  double collapse_seconds = 0.0;
  double lower_bound_seconds = 0.0;
  double prune_seconds = 0.0;
  size_t records_collapsed = 0;      // Groups merged away by S_l.
  size_t groups_pruned = 0;          // Groups discarded against M.
  size_t cpn_growth_iterations = 0;  // CPN bound evaluations locating m.
  size_t cpn_edges_examined = 0;     // N_l edges enumerated for the CPN.
  size_t blocking_probes = 0;        // Blocked-index candidates enumerated.
  size_t predicate_evals = 0;        // Pair-predicate evaluations paid.
  // Compressed-index work behind the probes: postings an uncompressed
  // scan of the touched lists would have read, postings/blocks actually
  // decoded, and blocks the skip machinery (metadata gates, rank limits,
  // candidate memo) never opened.
  size_t postings_scanned = 0;
  size_t postings_decoded = 0;
  size_t blocks_decoded = 0;
  size_t blocks_skipped = 0;
};

struct PrunedDedupResult {
  /// Groups surviving all levels, in decreasing weight order.
  std::vector<Group> groups;
  /// Final-pass upper bounds aligned with `groups` (exact when
  /// Options::exact_bounds).
  std::vector<double> upper_bounds;
  /// True when `upper_bounds` are unconditional first-pass §4.3 bounds
  /// (PruneResult::unconditional_bounds): each entry caps its group's true
  /// duplicate count. False for early-exit-truncated or survivor-restricted
  /// multi-pass bounds, which are valid for pruning against M but must not
  /// be used as count intervals — callers needing intervals then recompute
  /// via ComputeGroupUpperBounds (prune.h).
  bool upper_bounds_unconditional = false;
  std::vector<LevelStats> levels;
  /// True when pruning reduced the data to exactly K groups, in which case
  /// `groups` *is* the TopK answer and no final clustering is needed.
  bool exact = false;
  /// How the deadline degraded this run (degradation.degraded == false
  /// when every level ran to completion). When degradation stopped the
  /// pipeline before pruning recomputed bounds for the *current* group
  /// set, `upper_bounds` is empty — callers needing intervals then fall
  /// back to ComputeGroupUpperBounds (prune.h).
  DegradationInfo degradation;
};

struct PrunedDedupOptions {
  int k = 10;
  int prune_passes = 2;
  /// Compute exact (no early-exit) upper bounds in the final prune pass;
  /// required by the rank queries.
  bool exact_bounds = false;
};

/// Algorithm 2 (PrunedDedup): for each predicate level, collapse with S_l,
/// estimate the lower bound M with N_l, and prune groups whose upper bound
/// cannot reach M. Returns the reduced set of groups plus per-level stats.
///
/// `levels` predicates must be bound to a Corpus built over `data`.
/// The collapse and prune hot loops fan out at the caller's thread scope
/// (common/parallel.h: ScopedParallelism, TOPKDUP_THREADS). The context's
/// recorder, when set, receives the per-level explain events. On expiry
/// of the context's deadline the pipeline stops at the next checkpoint and
/// returns its best consistent state with `degradation` filled. Every
/// output is bit-identical at any thread count, under a pure work budget
/// too.
StatusOr<PrunedDedupResult> PrunedDedup(
    const record::Dataset& data, const std::vector<PredicateLevel>& levels,
    const PrunedDedupOptions& options, const QueryContext& context = {});

}  // namespace topkdup::dedup

#endif  // TOPKDUP_DEDUP_PRUNED_DEDUP_H_
