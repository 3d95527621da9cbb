#include "dedup/lower_bound.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "graph/clique_partition.h"
#include "graph/graph.h"
#include "obs/explain.h"

namespace topkdup::dedup {

namespace {

/// Incrementally grows the necessary-predicate graph over a prefix of the
/// weight-sorted groups and evaluates the CPN lower bound on demand.
class PrefixCpn {
 public:
  /// Sentinel returned by CpnAt when the deadline interrupted edge growth:
  /// the probe is abandoned whole (a bound over a partially grown edge set
  /// could falsely certify distinctness).
  static constexpr int kAbandoned = -1;

  PrefixCpn(const std::vector<Group>& groups,
            const predicates::PairPredicate& necessary,
            const predicates::BlockedIndex& index, const Deadline* deadline)
      : groups_(groups),
        necessary_(necessary),
        index_(index),
        exact_blocking_(necessary.BlockingIsExact()),
        deadline_(deadline) {}

  /// CPN lower bound of the graph on groups[0..m), early-stopped at `k`;
  /// kAbandoned when the deadline expired mid-growth.
  int CpnAt(size_t m, int k) {
    ++cpn_evaluations_;
    if (!GrowTo(m)) return kAbandoned;
    graph::Graph g(m);
    // Edges are appended with increasing second endpoint, so the edges of
    // the prefix form a prefix of the edge list.
    for (const auto& [a, b] : edges_) {
      if (b >= m) break;
      g.AddEdge(a, b);
    }
    const int cheap = graph::GreedyIndependentSetBound(g, k);
    if (cheap >= k) return cheap;
    // Min-fill triangulation is only worth its O(n * deg^2) cost on
    // prefixes small enough for the tighter bound to matter; on large
    // prefixes the greedy independent set is already near alpha(G).
    if (m > 1024) return cheap;
    return std::max(cheap, graph::CliquePartitionLowerBound(g, k));
  }

  size_t edges_examined() const { return edges_examined_; }
  size_t pair_evals() const { return pair_evals_; }
  size_t cpn_evaluations() const { return cpn_evaluations_; }

 private:
  /// Grows the edge set to cover prefix `m`. Returns false when the urgent
  /// deadline check fired mid-growth; `grown_` then marks the last fully
  /// processed vertex, so the edge list stays consistent for any smaller
  /// prefix. Work-budget expiry is decided only between probes (in the
  /// caller), never here, keeping budget-limited runs deterministic.
  bool GrowTo(size_t m) {
    for (; grown_ < m; ++grown_) {
      if (deadline_ != nullptr && (grown_ & 0x3f) == 0 &&
          deadline_->ExpiredUrgent()) {
        return false;
      }
      index_.ForEachCandidate(grown_, &scratch_, [&](size_t j) {
        if (j >= grown_) return true;
        ++edges_examined_;
        if (!exact_blocking_) {
          ++pair_evals_;
          if (!necessary_.Evaluate(groups_[grown_].rep, groups_[j].rep)) {
            return true;
          }
        }
        edges_.emplace_back(static_cast<uint32_t>(j),
                            static_cast<uint32_t>(grown_));
        return true;
      });
    }
    return true;
  }

  const std::vector<Group>& groups_;
  const predicates::PairPredicate& necessary_;
  const predicates::BlockedIndex& index_;
  const bool exact_blocking_;  // Candidates are edges without Evaluate.
  const Deadline* deadline_;
  predicates::BlockedIndex::QueryScratch scratch_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
  size_t grown_ = 0;
  size_t edges_examined_ = 0;
  size_t pair_evals_ = 0;
  size_t cpn_evaluations_ = 0;
};

}  // namespace

namespace {

/// Publishes one estimation's work counters and bound quality to the
/// registry (counters land in the open level's block; gauges hold the last
/// run).
void RecordLowerBoundMetrics(const LowerBoundResult& result) {
  auto& registry = metrics::Registry::Global();
  static metrics::Counter* edges =
      registry.GetCounter("dedup.lower_bound.edges_examined");
  static metrics::Counter* pair_evals =
      registry.GetCounter("dedup.lower_bound.pair_evals");
  static metrics::Counter* cpn_evals =
      registry.GetCounter("dedup.lower_bound.cpn_evals");
  static metrics::Gauge* m_gauge = registry.GetGauge("dedup.lower_bound.m");
  static metrics::Gauge* big_m_gauge =
      registry.GetGauge("dedup.lower_bound.M");
  edges->Add(result.edges_examined);
  pair_evals->Add(result.pair_evals);
  cpn_evals->Add(result.cpn_evaluations);
  m_gauge->Set(static_cast<double>(result.m));
  big_m_gauge->Set(result.M);
}

}  // namespace

LowerBoundResult EstimateLowerBound(
    const std::vector<Group>& groups,
    const predicates::PairPredicate& necessary,
    const predicates::BlockedIndex& index, int k,
    const QueryContext& context) {
  TOPKDUP_CHECK(k >= 1);
  TOPKDUP_CHECK(index.item_count() == groups.size());
  obs::ExplainRecorder* recorder = context.recorder;
  trace::Span span("dedup.lower_bound");
  span.AddArg("groups", static_cast<int64_t>(groups.size()));
  span.AddArg("k", k);
  LowerBoundResult result;
  const size_t n = groups.size();
  if (n == 0) return result;
  if (n <= static_cast<size_t>(k)) {
    result.m = n;
    result.M = groups.back().weight;
    result.certified = false;
    RecordLowerBoundMetrics(result);
    if (recorder != nullptr) {
      recorder->RecordLowerBound(result.m, result.M, result.certified, 0, 0);
    }
    return result;
  }

  const Deadline* deadline = context.deadline;
  PrefixCpn cpn(groups, necessary, index, deadline);
  bool degraded = false;
  size_t edges_charged = 0;

  // Evaluates one prefix, forwarding the probe to the explain recorder with
  // the search phase that asked for it. Returns PrefixCpn::kAbandoned when
  // the urgent deadline check interrupted edge growth; the partial probe
  // contributes nothing. Edge enumerations are charged to the deadline
  // probe-by-probe, so work-budget expiry lands between probes on the same
  // probe at any thread count (the search is serial).
  auto probe = [&](size_t m, const char* phase) {
    const int bound = cpn.CpnAt(m, k);
    if (deadline != nullptr) {
      deadline->ChargeWork(cpn.edges_examined() - edges_charged + 1);
      edges_charged = cpn.edges_examined();
    }
    if (bound == PrefixCpn::kAbandoned) {
      degraded = true;
      return PrefixCpn::kAbandoned;
    }
    if (recorder != nullptr) recorder->RecordCpnProbe(m, bound, phase);
    return bound;
  };
  // Full (work-budget-aware) check at a probe boundary; deterministic.
  auto expired_before_probe = [&]() {
    if (deadline != nullptr && deadline->Expired()) {
      degraded = true;
      return true;
    }
    return false;
  };

  // Geometric growth followed by binary search for the smallest prefix
  // whose CPN bound reaches k. The bound is valid at any prefix, so even
  // if the heuristic is not perfectly monotone the returned m is safe.
  size_t found = 0;  // Smallest prefix found with CPN >= k; 0 = none yet.
  size_t lo = static_cast<size_t>(k) - 1;  // CPN of k-1 vertices < k.
  size_t hi = static_cast<size_t>(k);
  while (!expired_before_probe()) {
    const int bound = probe(hi, "gallop");
    if (bound == PrefixCpn::kAbandoned) break;
    if (bound >= k) {
      found = hi;
      break;
    }
    if (hi == n) break;
    lo = hi;
    hi = std::min(n, hi * 2);
  }
  if (found != 0) {
    // Invariant: CpnAt(found) >= k; search (lo, found] for minimality.
    // Stopping early keeps a certified but possibly non-minimal m, whose
    // M is merely weaker (smaller), never wrong.
    while (lo + 1 < found && !expired_before_probe()) {
      const size_t mid = lo + (found - lo) / 2;
      const int bound = probe(mid, "binary_search");
      if (bound == PrefixCpn::kAbandoned) break;
      if (bound >= k) {
        found = mid;
      } else {
        lo = mid;
      }
    }
  }

  if (found == 0) {
    result.m = n;
    result.M = groups.back().weight;
    result.certified = false;
  } else {
    result.m = found;
    result.M = groups[found - 1].weight;
    result.certified = true;
  }
  result.degraded = degraded;
  result.edges_examined = cpn.edges_examined();
  result.pair_evals = cpn.pair_evals();
  result.cpn_evaluations = cpn.cpn_evaluations();
  span.AddArg("m", static_cast<int64_t>(result.m));
  RecordLowerBoundMetrics(result);
  if (recorder != nullptr) {
    recorder->RecordLowerBound(result.m, result.M, result.certified,
                               result.edges_examined, result.cpn_evaluations);
  }
  return result;
}

}  // namespace topkdup::dedup
