#include "topk/pair_scoring.h"

#include <cstdint>

#include "common/check.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "predicates/blocked_index.h"
#include "predicates/index_cache.h"

namespace topkdup::topk {

cluster::PairScores BuildGroupPairScores(
    const std::vector<dedup::Group>& groups,
    const predicates::PairPredicate& necessary, const PairScoreFn& scorer,
    const PairScoringOptions& options, const QueryContext& context) {
  TOPKDUP_CHECK(options.default_score <= 0.0);
  const Deadline* deadline = context.deadline;
  const size_t n = groups.size();
  trace::Span span("topk.pair_scores");
  span.AddArg("groups", static_cast<int64_t>(n));
  auto& registry = metrics::Registry::Global();
  static metrics::Counter* pairs_enumerated =
      registry.GetCounter("topk.pair_scores.pairs_enumerated");
  static metrics::Counter* pair_evals =
      registry.GetCounter("topk.pair_scores.pair_evals");
  static metrics::Counter* pairs_scored =
      registry.GetCounter("topk.pair_scores.pairs_scored");
  std::vector<size_t> reps(n);
  for (size_t i = 0; i < n; ++i) reps[i] = groups[i].rep;

  const predicates::IndexHandle index_handle(context.index_cache, necessary,
                                             reps);
  const predicates::BlockedIndex& index = index_handle.get();
  // Exact blocking: every enumerated pair satisfies N_L as it stands.
  const bool exact_blocking = necessary.BlockingIsExact();
  // Predicate evaluation + scoring dominate; fan them out into one pair
  // list per shard, which the PairScores constructor scatters into rows in
  // parallel. The shard layout is thread-count independent, so every row's
  // order — and with it the stored structure — is reproducible at any
  // level.
  const size_t grain = DefaultGrain(n);
  std::vector<std::vector<cluster::ScoredPair>> shard_pairs(
      MakeShards(0, n, grain).shard_count());
  ParallelForShards(0, n, grain, [&](size_t b, size_t e, size_t shard) {
    if (deadline != nullptr && deadline->ExpiredUrgent()) return;
    std::vector<cluster::ScoredPair>& out = shard_pairs[shard];
    predicates::BlockedIndex::QueryScratch scratch;
    size_t enumerated = 0;
    size_t evals = 0;
    size_t scored = 0;
    index.ForEachCandidatePairInRange(b, e, &scratch,
                                      [&](size_t p, size_t q) {
      ++enumerated;
      if (!exact_blocking) {
        ++evals;
        if (!necessary.Evaluate(reps[p], reps[q])) return;
      }
      ++scored;
      out.push_back({static_cast<uint32_t>(p), static_cast<uint32_t>(q),
                     scorer(reps[p], reps[q])});
    });
    pairs_enumerated->Add(enumerated);
    pair_evals->Add(evals);
    pairs_scored->Add(scored);
    if (deadline != nullptr) deadline->ChargeWork(enumerated);
  });
  cluster::PairScores scores(n, options.default_score, shard_pairs);
  span.AddArg("scored", static_cast<int64_t>(scores.stored_pair_count()));
  return scores;
}

}  // namespace topkdup::topk
