#ifndef TOPKDUP_PREDICATES_PAIR_PREDICATE_H_
#define TOPKDUP_PREDICATES_PAIR_PREDICATE_H_

#include <cmath>
#include <cstddef>
#include <string_view>
#include <vector>

#include "text/vocab.h"

namespace topkdup::predicates {

/// A cheap binary predicate over record pairs, identified by record index
/// into the pipeline's Corpus.
///
/// A *necessary* predicate must be true for every true-duplicate pair; a
/// *sufficient* predicate must be false for every non-duplicate pair
/// (paper §4). The class itself does not know which role it plays — the
/// PrunedDedup pipeline assigns roles — but implementations must honor the
/// contract of the role they are used in.
///
/// Every predicate also defines its own *blocking scheme*: a signature
/// token set per record plus a lower bound on the number of signature
/// tokens any satisfying pair must share. The pipeline only ever evaluates
/// the predicate on candidate pairs produced by an inverted index over
/// these signatures, so the blocking must be conservative:
///
///   Evaluate(a, b) == true  implies
///   |Signature(a) ∩ Signature(b)| >= MinCommon(|Signature(a)|, |Signature(b)|)
///
/// A predicate whose BlockingIsExact() is true promises the converse as
/// well, so the two sides are equivalent and a blocked-index candidate
/// satisfies the predicate without an Evaluate call. The index counts only
/// valid tokens (kInvalidToken never matches), so such a predicate's
/// signatures must hold none, or its Evaluate must not count them either.
class PairPredicate {
 public:
  virtual ~PairPredicate() = default;

  virtual std::string_view name() const = 0;

  /// Exact predicate decision for records `a` and `b`.
  virtual bool Evaluate(size_t a, size_t b) const = 0;

  /// Sorted blocking-signature token set of record `rec`. The reference
  /// must stay valid for the lifetime of the predicate.
  virtual const std::vector<text::TokenId>& Signature(size_t rec) const = 0;

  /// Minimum number of common signature tokens of any pair satisfying the
  /// predicate, given the two signature sizes. Must be >= 1 (a pair with
  /// disjoint signatures is never a candidate).
  virtual int MinCommon(size_t size_a, size_t size_b) const { return 1; }

  /// True when every pair sharing at least MinCommon signature tokens
  /// satisfies the predicate (see the class comment). Callers then skip
  /// Evaluate on the index's candidates.
  virtual bool BlockingIsExact() const { return false; }
};

/// MinCommon of a predicate that accepts a pair iff common / smaller >=
/// `fraction`, where `smaller` is the smaller signature size: the smallest
/// c >= 1 with c / smaller >= fraction, in the same double arithmetic as
/// that acceptance test. ceil(fraction * smaller) alone can overshoot by
/// one (fraction 0.28, smaller 25: the product rounds above 7, yet
/// 7 / 25 >= 0.28), and the blocking would then miss accepted pairs.
inline int MinCommonForFraction(double fraction, size_t smaller) {
  if (smaller == 0) return 1;
  const double s = static_cast<double>(smaller);
  size_t c = static_cast<size_t>(std::fmax(1.0, std::ceil(fraction * s)));
  while (c > 1 && static_cast<double>(c - 1) / s >= fraction) --c;
  while (static_cast<double>(c) / s < fraction) ++c;
  return static_cast<int>(c);
}

}  // namespace topkdup::predicates

#endif  // TOPKDUP_PREDICATES_PAIR_PREDICATE_H_
