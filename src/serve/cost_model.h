#ifndef TOPKDUP_SERVE_COST_MODEL_H_
#define TOPKDUP_SERVE_COST_MODEL_H_

#include <cstdint>
#include <mutex>
#include <string>

namespace topkdup::serve {

/// Measured execution-cost model for one dataset, built from per-query
/// resource attribution: EWMA of the CPU consumed, the wall time, and the
/// work-unit counts (candidate pairs evaluated, postings decoded) of
/// completed attempts. The predicted-miss shed divides these into *unit*
/// costs — CPU per candidate pair, CPU per posting — so an admission
/// refusal can cite the measured rate it believed ("cpu/pair=41ns x
/// 240k pairs") instead of a bare wall-clock percentile.
///
/// The prediction is deliberately a typical-query estimate (ratio of
/// EWMAs, so cpu_per_pair x expected_pairs reproduces the CPU EWMA
/// exactly): admission happens before the query's own work counts exist,
/// so the expected unit counts are the model's, not the query's. The
/// wall prediction scales predicted CPU by the observed wall/CPU ratio,
/// which folds pool parallelism and scheduler interference back in.
class CostModel {
 public:
  /// `alpha` is the EWMA weight of the newest observation.
  explicit CostModel(double alpha = 0.2);

  struct Observation {
    double cpu_seconds = 0.0;
    double wall_seconds = 0.0;
    uint64_t candidate_pairs = 0;
    uint64_t postings_decoded = 0;
  };

  /// Folds one completed attempt into the model. Thread-safe.
  void Observe(const Observation& observation);

  struct Prediction {
    /// False until the first Observe(); callers fall back to the wall
    /// p50 while the model is empty.
    bool valid = false;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
    /// Measured unit costs (0 when the unit was never observed).
    double cpu_per_pair_ns = 0.0;
    double cpu_per_posting_ns = 0.0;
    /// Expected unit counts for a typical query (EWMA).
    double pairs = 0.0;
    double postings = 0.0;
  };

  /// The model's current typical-query estimate. Thread-safe.
  Prediction Predict() const;

  /// One-line JSON for /statusz dataset entries.
  std::string DebugJson() const;

 private:
  const double alpha_;
  mutable std::mutex mu_;
  uint64_t samples_ = 0;
  double cpu_ = 0.0;
  double wall_ = 0.0;
  double pairs_ = 0.0;
  double postings_ = 0.0;
};

}  // namespace topkdup::serve

#endif  // TOPKDUP_SERVE_COST_MODEL_H_
