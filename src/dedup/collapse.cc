#include "dedup/collapse.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "dedup/union_find.h"
#include "obs/explain.h"
#include "predicates/blocked_index.h"
#include "predicates/index_cache.h"

namespace topkdup::dedup {

namespace {

using Edge = std::pair<uint32_t, uint32_t>;

metrics::Counter* PairEvalCounter() {
  static metrics::Counter* counter =
      metrics::Registry::Global().GetCounter("dedup.collapse.pair_evals");
  return counter;
}

/// Sufficient-predicate edges among positions [begin, end) x candidates.
/// Each shard carries a local union-find so pairs already merged
/// transitively *within the shard* skip the predicate, mirroring the
/// serial fast path; cross-shard redundancy is resolved at merge time.
/// The final closure is a set partition, so edge order and the extra
/// cross-shard edges cannot change the output.
void CollectEdges(const predicates::BlockedIndex& index,
                  const predicates::PairPredicate& sufficient,
                  const std::vector<size_t>& reps, size_t begin, size_t end,
                  const Deadline* deadline, std::vector<Edge>* edges) {
  // A shard skipped on expiry contributes no edges; the closure is then
  // under-collapsed, which is still a valid partition. Work-budget expiry
  // is never decided here (ExpiredUrgent ignores it), so budget-limited
  // runs stay bit-identical at any thread count.
  if (deadline != nullptr && deadline->ExpiredUrgent()) return;
  UnionFind local(reps.size());
  predicates::BlockedIndex::QueryScratch scratch;
  size_t evals = 0;
  index.ForEachCandidatePairInRange(begin, end, &scratch,
                                    [&](size_t p, size_t q) {
    if (local.Find(p) == local.Find(q)) return;  // Merged transitively.
    ++evals;
    if (sufficient.Evaluate(reps[p], reps[q])) {
      local.Union(p, q);
      edges->emplace_back(static_cast<uint32_t>(p),
                          static_cast<uint32_t>(q));
    }
  });
  PairEvalCounter()->Add(evals);
  if (deadline != nullptr) deadline->ChargeWork(evals);
}

}  // namespace

std::vector<Group> Collapse(const std::vector<Group>& groups,
                            const predicates::PairPredicate& sufficient,
                            const QueryContext& context) {
  const Deadline* deadline = context.deadline;
  obs::ExplainRecorder* recorder = context.recorder;
  const size_t n = groups.size();
  trace::Span span("dedup.collapse");
  span.AddArg("groups_in", static_cast<int64_t>(n));
  std::vector<size_t> reps(n);
  for (size_t i = 0; i < n; ++i) reps[i] = groups[i].rep;

  const predicates::IndexHandle index_handle(context.index_cache, sufficient,
                                             reps);
  const predicates::BlockedIndex& index = index_handle.get();
  UnionFind uf(n);
  if (deadline == nullptr && ParallelismLevel() <= 1) {
    // Serial fast path: one global union-find skips every transitively
    // merged pair before the (possibly expensive) predicate runs.
    predicates::BlockedIndex::QueryScratch scratch;
    size_t evals = 0;
    index.ForEachCandidatePairInRange(0, n, &scratch,
                                      [&](size_t p, size_t q) {
      if (uf.Find(p) == uf.Find(q)) return;
      ++evals;
      if (sufficient.Evaluate(reps[p], reps[q])) uf.Union(p, q);
    });
    PairEvalCounter()->Add(evals);
  } else {
    const std::vector<Edge> edges = ParallelReduce<std::vector<Edge>>(
        0, n, DefaultGrain(n),
        [&](size_t b, size_t e, std::vector<Edge>* out) {
          CollectEdges(index, sufficient, reps, b, e, deadline, out);
        },
        [](std::vector<Edge>* total, std::vector<Edge>&& shard) {
          total->insert(total->end(), shard.begin(), shard.end());
        });
    for (const auto& [p, q] : edges) uf.Union(p, q);
  }

  // Every union drops the set count by one, so merges == records collapsed
  // away at this level (the paper's n column moving).
  static metrics::Counter* merges =
      metrics::Registry::Global().GetCounter("dedup.collapse.merges");
  merges->Add(n - uf.set_count());
  span.AddArg("groups_out", static_cast<int64_t>(uf.set_count()));

  std::vector<Group> out;
  out.reserve(uf.set_count());
  for (const std::vector<size_t>& positions : uf.Groups()) {
    Group merged;
    double best_weight = -1.0;
    for (size_t pos : positions) {
      const Group& g = groups[pos];
      merged.weight += g.weight;
      merged.members.insert(merged.members.end(), g.members.begin(),
                            g.members.end());
      if (g.weight > best_weight) {
        best_weight = g.weight;
        merged.rep = g.rep;
      }
    }
    if (recorder != nullptr && positions.size() > 1 &&
        recorder->SampleKey(static_cast<uint64_t>(merged.rep))) {
      // The closure partition is thread-count-invariant, so reporting
      // "winner absorbed loser" per constituent here (rather than per
      // discovered edge) keeps explain output deterministic.
      for (size_t pos : positions) {
        const Group& g = groups[pos];
        if (g.rep == merged.rep) continue;
        recorder->RecordCollapseMerge(
            {merged.rep, g.rep, best_weight, g.weight});
      }
    }
    out.push_back(std::move(merged));
  }
  if (recorder != nullptr) {
    recorder->RecordCollapseSummary(n, out.size());
  }
  SortGroupsByWeightDesc(&out);
  return out;
}

}  // namespace topkdup::dedup
