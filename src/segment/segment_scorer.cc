#include "segment/segment_scorer.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace topkdup::segment {

SegmentScorer::SegmentScorer(const cluster::PairScores& scores,
                             const std::vector<size_t>& order, size_t band,
                             Objective objective, const Deadline* deadline)
    : n_(order.size()), band_(std::max<size_t>(band, 1)) {
  TOPKDUP_CHECK(order.size() == scores.item_count());
  trace::Span span("segment.scorer.fill");
  span.AddArg("rows", static_cast<int64_t>(n_));
  span.AddArg("band", static_cast<int64_t>(band_));
  static metrics::Counter* cells_filled =
      metrics::Registry::Global().GetCounter("segment.scorer.cells_filled");
  static metrics::Counter* rows_counter =
      metrics::Registry::Global().GetCounter("segment.scorer.rows");
  scores_flat_.assign(n_ * band_, 0.0);
  // Closed form of the per-row fills below (each row i scores spans
  // [i, i..min(n-1, i+band-1)]); kept as a member so explain reports don't
  // have to read the process-wide counter.
  for (size_t i = 0; i < n_; ++i) {
    cells_filled_ += std::min(n_ - 1, i + band_ - 1) - i + 1;
  }

  std::vector<size_t> pos(n_, 0);
  for (size_t p = 0; p < n_; ++p) pos[order[p]] = p;

  // neg_total[t]: all of t's pair mass that counts as crossing when t is
  // alone — stored negative scores plus default-score mass of unstored
  // pairs.
  std::vector<double> neg_total(n_, 0.0);
  for (size_t t = 0; t < n_; ++t) {
    neg_total[t] =
        scores.StoredNegativeIncident(t) +
        scores.default_score() *
            static_cast<double>(n_ - 1 - scores.Neighbors(t).size());
  }

  // Entry check (serial, so work-budget expiry here is deterministic): an
  // already-expired deadline skips the whole fill; all-zero scores still
  // admit every segmentation, just without quality guidance.
  if (deadline != nullptr && deadline->Expired()) {
    degraded_.store(true, std::memory_order_relaxed);
    return;
  }

  // Each span start i fills only its own row scores_flat_[i*band ..), and
  // the incremental walk reads nothing another row writes, so rows
  // parallelize with no synchronization and bit-identical results.
  ParallelFor(0, n_, DefaultGrain(n_), [&](size_t i) {
    // Urgent (wall-clock) poll per row; a skipped row keeps its
    // zero scores. Never decides work-budget expiry, so budget-limited
    // fills stay bit-identical at any thread count.
    if (deadline != nullptr && deadline->ExpiredUrgent()) {
      degraded_.store(true, std::memory_order_relaxed);
      return;
    }
    // Crossing (separation-reward) part, shared by both objectives.
    // Span [i, i]: only item order[i]; the value is minus its crossing
    // mass.
    double crossing_value = -neg_total[order[i]];
    // Inside part under kMinPair: weakest stored pair / default presence.
    double min_stored = std::numeric_limits<double>::infinity();
    bool has_unstored_inside = false;
    size_t pairs_inside = 0;
    // Inside part under kSumPositive is accumulated straight into
    // crossing_value (it shares the incremental walk).
    scores_flat_[i * band_] = crossing_value;  // Singleton: inside = 0.
    const size_t j_end = std::min(n_ - 1, i + band_ - 1);
    for (size_t j = i + 1; j <= j_end; ++j) {
      const size_t t = order[j];
      // t joins the span: its own crossing mass appears...
      double delta = -neg_total[t];
      double sum_positive_delta = 0.0;
      size_t stored_inside = 0;
      for (const auto& [u, p] : scores.Neighbors(t)) {
        const size_t pu = pos[u];
        if (pu >= i && pu < j) {
          ++stored_inside;
          min_stored = std::min(min_stored, p);
          if (p > 0.0) {
            sum_positive_delta += p;  // ...new inside positive pair...
          } else if (p < 0.0) {
            // ...and negative pairs now inside forfeit the separation
            // reward they were earning from both endpoints.
            delta += 2.0 * p;
          }
        }
      }
      // Unstored pairs between t and the span likewise forfeit twice the
      // (non-positive) default separation reward.
      const size_t new_unstored = (j - i) - stored_inside;
      if (new_unstored > 0) has_unstored_inside = true;
      pairs_inside += j - i;
      delta +=
          2.0 * scores.default_score() * static_cast<double>(new_unstored);
      crossing_value += delta;

      double inside = 0.0;
      switch (objective) {
        case Objective::kSumPositive:
          // Accumulate permanently: fold into crossing_value.
          crossing_value += sum_positive_delta;
          break;
        case Objective::kMinPair:
          if (pairs_inside > 0) {
            inside = min_stored;
            if (has_unstored_inside) {
              inside = std::min(inside, scores.default_score());
            }
            if (min_stored ==
                std::numeric_limits<double>::infinity()) {
              inside = scores.default_score();  // All pairs unstored.
            }
          }
          break;
      }
      scores_flat_[i * band_ + (j - i)] = crossing_value + inside;
    }
    // One batched add per row: the DP-table fill count behind §5.3's
    // O(n * band) claim.
    rows_counter->Increment();
    cells_filled->Add(j_end - i + 1);
  });
  // Charged after the fill at a serial point: the amount is the closed-form
  // cells_filled_, identical at any thread count.
  if (deadline != nullptr) deadline->ChargeWork(cells_filled_);
}

}  // namespace topkdup::segment
