#include "dedup/prune.h"

#include <atomic>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "obs/explain.h"
#include "predicates/blocked_index.h"
#include "predicates/index_cache.h"

namespace topkdup::dedup {

namespace {

/// Per-level prune instrumentation (Figures 2-4's n' column). Flushed once
/// per shard so the bound loops stay allocation- and contention-free;
/// `passes` counts the passes that ran, a deadline-stopped prune's
/// included.
struct PruneCounters {
  metrics::Counter* groups_examined;
  metrics::Counter* groups_pruned;
  metrics::Counter* pair_evals;
  metrics::Counter* early_exits;
  metrics::Counter* passes;

  static const PruneCounters& Get() {
    auto& registry = metrics::Registry::Global();
    static const PruneCounters counters = {
        registry.GetCounter("dedup.prune.groups_examined"),
        registry.GetCounter("dedup.prune.groups_pruned"),
        registry.GetCounter("dedup.prune.pair_evals"),
        registry.GetCounter("dedup.prune.early_exits"),
        registry.GetCounter("dedup.prune.passes"),
    };
    return counters;
  }
};

}  // namespace

predicates::IndexHandle RepresentativeIndex(
    const std::vector<Group>& groups, const predicates::PairPredicate& pred,
    predicates::IndexCache* cache) {
  std::vector<size_t> reps(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) reps[i] = groups[i].rep;
  return predicates::IndexHandle(cache, pred, reps);
}

PruneResult PruneGroups(const std::vector<Group>& groups,
                        const predicates::PairPredicate& necessary,
                        const predicates::BlockedIndex& index, double M,
                        const PruneOptions& options, bool exact_bounds,
                        const QueryContext& context) {
  TOPKDUP_CHECK(options.passes >= 1);
  obs::ExplainRecorder* recorder = context.recorder;
  const size_t n = groups.size();
  TOPKDUP_CHECK(index.item_count() == n);
  trace::Span span("dedup.prune");
  span.AddArg("groups_in", static_cast<int64_t>(n));
  span.AddArg("passes", options.passes);
  const PruneCounters& counters = PruneCounters::Get();

  // Exact blocking: every candidate satisfies N, so none is re-evaluated.
  const bool exact_blocking = necessary.BlockingIsExact();
  const Deadline* deadline = context.deadline;
  PruneResult result;
  result.unconditional_bounds = exact_bounds && options.passes == 1;

  // uint8_t, not vector<bool>: parallel writers touch distinct slots,
  // which packed bits would turn into racy read-modify-writes.
  std::vector<uint8_t> alive(n, 1);
  // +inf, not 0: a group whose bound was never computed (its shard skipped
  // on urgent deadline expiry) must keep a valid — merely uninformative —
  // upper bound. With no deadline every slot is overwritten in pass 1.
  std::vector<double> ub(n, std::numeric_limits<double>::infinity());

  for (int pass = 0; pass < options.passes; ++pass) {
    // Between-pass boundary: the only point where work-budget expiry is
    // decided, so a budget-limited prune stops after the same completed
    // pass at any thread count. The completed passes' alive/ub state is
    // fully consistent.
    if (deadline != nullptr && deadline->Expired()) {
      result.degraded = true;
      break;
    }
    std::vector<uint8_t> next_alive(n, 0);
    std::atomic<bool> pass_skipped{false};
    // Each group's bound reads the previous pass's `alive` (frozen during
    // the pass) and writes only its own ub/next_alive slots, so groups
    // shard freely. Candidate enumeration order is fixed by the index,
    // making every per-group float sum bit-identical at any thread count.
    ParallelForShards(0, n, DefaultGrain(n),
                      [&](size_t shard_begin, size_t shard_end, size_t) {
      if (deadline != nullptr && deadline->ExpiredUrgent()) {
        // Keep the shard's groups exactly as the previous pass left them:
        // alive stays alive (under-pruning is sound), ub keeps its prior
        // valid bound (+inf before pass 1).
        for (size_t i = shard_begin; i < shard_end; ++i) {
          next_alive[i] = alive[i];
        }
        pass_skipped.store(true, std::memory_order_relaxed);
        return;
      }
      predicates::BlockedIndex::QueryScratch scratch;
      size_t examined = 0;
      size_t live_candidates = 0;  // The deadline's work unit.
      size_t evals = 0;
      size_t exits = 0;
      for (size_t i = shard_begin; i < shard_end; ++i) {
        if (!alive[i]) {
          ub[i] = 0.0;
          continue;
        }
        ++examined;
        // Sampling keys off the weight-sorted group index, so the explain
        // event set is identical at any thread count.
        const bool sampled = recorder != nullptr && recorder->SampleKey(i);
        size_t contributing = 0;
        bool early_exit = false;
        double sum = groups[i].weight;
        index.ForEachCandidate(i, &scratch, [&](size_t j) {
          // In pass p only neighbors whose previous-pass bound exceeded M
          // (i.e. still alive) can be co-members of a group larger than M.
          if (!alive[j]) return true;
          ++live_candidates;
          if (!exact_blocking) {
            ++evals;
            if (!necessary.Evaluate(groups[i].rep, groups[j].rep)) {
              return true;
            }
          }
          sum += groups[j].weight;
          if (sampled) ++contributing;
          if (!exact_bounds && sum > M) {
            ++exits;
            early_exit = true;
            return false;  // Early exit.
          }
          return true;
        });
        ub[i] = sum;
        // A group at least as heavy as M can itself be an answer group and
        // is never pruned (§4.3).
        next_alive[i] = groups[i].weight >= M || sum > M;
        if (sampled) {
          obs::PruneDecisionExplain decision;
          decision.pass = pass + 1;
          decision.group = i;
          decision.rep = groups[i].rep;
          decision.weight = groups[i].weight;
          decision.upper_bound = sum;
          decision.M = M;
          decision.neighbors_contributing = contributing;
          decision.survived = next_alive[i] != 0;
          if (groups[i].weight >= M) {
            decision.verdict = obs::PruneVerdict::kKeptOwnWeight;
          } else if (sum > M) {
            decision.verdict = early_exit
                                   ? obs::PruneVerdict::kKeptBoundEarlyExit
                                   : obs::PruneVerdict::kKeptBoundFull;
          } else {
            decision.verdict = obs::PruneVerdict::kPrunedBoundBelowM;
          }
          recorder->RecordPruneDecision(decision);
        }
      }
      counters.groups_examined->Add(examined);
      counters.pair_evals->Add(evals);
      counters.early_exits->Add(exits);
      if (deadline != nullptr) deadline->ChargeWork(live_candidates);
    });
    alive.swap(next_alive);
    counters.passes->Increment();
    if (pass_skipped.load(std::memory_order_relaxed)) {
      result.degraded = true;
      result.pass_skipped = true;
    } else {
      ++result.passes_completed;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    result.groups.push_back(groups[i]);
    result.upper_bounds.push_back(ub[i]);
  }
  counters.groups_pruned->Add(n - result.groups.size());
  span.AddArg("groups_out", static_cast<int64_t>(result.groups.size()));
  if (recorder != nullptr) {
    recorder->RecordPruneSummary(options.passes, M, n, result.groups.size());
  }
  return result;
}

std::vector<double> ComputeGroupUpperBounds(
    const std::vector<Group>& groups,
    const predicates::PairPredicate& necessary,
    const std::vector<size_t>& indices, const QueryContext& context) {
  const Deadline* deadline = context.deadline;
  const predicates::IndexHandle index =
      RepresentativeIndex(groups, necessary, context.index_cache);
  const bool exact_blocking = necessary.BlockingIsExact();

  std::vector<double> bounds(indices.size(),
                             std::numeric_limits<double>::infinity());
  ParallelForShards(0, indices.size(), DefaultGrain(indices.size()),
                    [&](size_t shard_begin, size_t shard_end, size_t) {
    if (deadline != nullptr && deadline->ExpiredUrgent()) return;
    predicates::BlockedIndex::QueryScratch scratch;
    for (size_t s = shard_begin; s < shard_end; ++s) {
      const size_t i = indices[s];
      double sum = groups[i].weight;
      index->ForEachCandidate(i, &scratch, [&](size_t j) {
        if (j != i && (exact_blocking ||
                       necessary.Evaluate(groups[i].rep, groups[j].rep))) {
          sum += groups[j].weight;
        }
        return true;
      });
      bounds[s] = sum;
    }
  });
  return bounds;
}

}  // namespace topkdup::dedup
