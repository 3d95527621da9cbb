#include "cluster/lp_cluster.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "dedup/union_find.h"
#include "lp/simplex.h"

namespace topkdup::cluster {

namespace {

/// Index of unordered pair (i, j), i < j, in the packed triangular layout.
size_t PairIndex(size_t i, size_t j, size_t n) {
  if (i > j) std::swap(i, j);
  return i * n - i * (i + 1) / 2 + (j - i - 1);
}

struct Violation {
  lp::Constraint constraint;
  double amount;
};

}  // namespace

StatusOr<LpClusterResult> LpCluster(const PairScores& scores,
                                    const LpClusterOptions& options) {
  const size_t n = scores.item_count();
  if (n > options.max_items) {
    return Status::ResourceExhausted(
        StrFormat("LpCluster: %zu items exceeds max_items=%zu", n,
                  options.max_items));
  }
  LpClusterResult result;
  if (n <= 1) {
    result.labels.assign(n, 0);
    result.integral = true;
    return result;
  }

  // Objective: CorrelationScore counts an inside positive pair once but a
  // crossing negative pair twice (once from each side's group), so in
  // "maximize sum c_ij x_ij + constant" form the coefficient of a negative
  // pair is 2 P_ij. With these weights an integral LP optimum maximizes
  // CorrelationScore exactly.
  const size_t num_vars = n * (n - 1) / 2;
  const auto coefficient = [](double p) { return p > 0.0 ? p : 2.0 * p; };
  std::vector<double> objective(num_vars,
                                coefficient(scores.default_score()));
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [j, p] : scores.Neighbors(i)) {
      if (j > i) objective[PairIndex(i, j, n)] = coefficient(p);
    }
  }

  std::vector<lp::Constraint> constraints;
  constraints.reserve(num_vars);
  for (size_t v = 0; v < num_vars; ++v) {
    lp::Constraint box;
    box.terms = {{static_cast<int>(v), 1.0}};
    box.rhs = 1.0;
    constraints.push_back(std::move(box));
  }

  std::vector<double> x;
  for (result.rounds = 1; result.rounds <= options.max_rounds;
       ++result.rounds) {
    TOPKDUP_ASSIGN_OR_RETURN(lp::LpResult lp_result,
                             lp::SolveLp(static_cast<int>(num_vars),
                                         objective, constraints));
    x = std::move(lp_result.x);
    result.lp_objective = lp_result.objective;

    // Hunt for violated triangle inequalities (all three orientations).
    std::vector<Violation> violations;
    const double eps = 1e-7;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const double xij = x[PairIndex(i, j, n)];
        for (size_t k = j + 1; k < n; ++k) {
          const double xjk = x[PairIndex(j, k, n)];
          const double xik = x[PairIndex(i, k, n)];
          const double v1 = xij + xjk - xik;  // i~j, j~k => i~k
          const double v2 = xij + xik - xjk;
          const double v3 = xik + xjk - xij;
          auto add = [&](size_t a, size_t b, size_t c2, size_t d, size_t e,
                         size_t f, double amount) {
            Violation viol;
            viol.constraint.terms = {
                {static_cast<int>(PairIndex(a, b, n)), 1.0},
                {static_cast<int>(PairIndex(c2, d, n)), 1.0},
                {static_cast<int>(PairIndex(e, f, n)), -1.0}};
            viol.constraint.rhs = 1.0;
            viol.amount = amount;
            violations.push_back(std::move(viol));
          };
          if (v1 > 1.0 + eps) add(i, j, j, k, i, k, v1 - 1.0);
          if (v2 > 1.0 + eps) add(i, j, i, k, j, k, v2 - 1.0);
          if (v3 > 1.0 + eps) add(i, k, j, k, i, j, v3 - 1.0);
        }
      }
    }
    if (violations.empty()) break;

    std::sort(violations.begin(), violations.end(),
              [](const Violation& a, const Violation& b) {
                return a.amount > b.amount;
              });
    const size_t take =
        std::min(violations.size(), options.constraints_per_round);
    for (size_t v = 0; v < take; ++v) {
      constraints.push_back(std::move(violations[v].constraint));
      ++result.constraints_added;
    }
  }

  // Integrality check.
  result.integral = true;
  for (double v : x) {
    if (v > options.integrality_epsilon &&
        v < 1.0 - options.integrality_epsilon) {
      result.integral = false;
      break;
    }
  }

  // Labels: components of the x >= 0.5 graph (for integral solutions the
  // triangle constraints make these exact cliques).
  dedup::UnionFind uf(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (x[PairIndex(i, j, n)] >= 0.5) uf.Union(i, j);
    }
  }
  result.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    result.labels[i] = static_cast<int>(uf.Find(i));
  }
  result.labels = Canonicalize(result.labels);
  return result;
}

}  // namespace topkdup::cluster
