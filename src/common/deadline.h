#ifndef TOPKDUP_COMMON_DEADLINE_H_
#define TOPKDUP_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace topkdup {

/// Why a Deadline reported expiry. Latched on first observation so every
/// later check agrees on a single cause.
enum class DeadlineReason : int {
  kNone = 0,
  kWallClock = 1,
  kWorkBudget = 2,
};

/// Name of a DeadlineReason, e.g. "work_budget".
const char* DeadlineReasonName(DeadlineReason reason);

/// A query budget: wall-clock time, abstract work units, or both. Stages
/// receive a `const Deadline*` (null = unlimited — the absent-deadline hot
/// path is a single pointer test, mirroring the explain null-recorder
/// pattern) and poll it cooperatively:
///
///   * `Expired()` — the full check (work budget, wall clock). Work budget
///     expiry must be decided only at serial checkpoints (stage and pass
///     boundaries, per-probe, per-pivot, per-DP-row) so that a
///     work-budget-limited query is bit-identical at any thread count.
///   * `ExpiredUrgent()` — wall clock only, never the work budget. Safe
///     inside parallel shards: wall-clock expiry is timing-dependent
///     anyway, so it cannot break work-budget determinism.
///
/// Expiry is latched: once any check observes it, every subsequent check on
/// any thread returns true with the same `reason()`. Expiry never aborts —
/// stages wind down and return their best consistent partial state.
class Deadline {
 public:
  /// Unlimited deadline; Expired() is always false.
  Deadline() = default;
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;
  /// Movable only for factory returns — a deadline must not move once
  /// shared with pipeline stages.
  Deadline(Deadline&& other) noexcept
      : has_wall_(other.has_wall_),
        wall_deadline_(other.wall_deadline_),
        has_budget_(other.has_budget_),
        work_budget_(other.work_budget_),
        work_charged_(other.work_charged_.load(std::memory_order_relaxed)),
        latched_(other.latched_.load(std::memory_order_relaxed)) {}
  Deadline& operator=(Deadline&&) = delete;

  /// A wall-clock budget of `millis` from now.
  static Deadline AfterMillis(int64_t millis);
  /// An abstract work-unit budget (predicate evals, edges examined, DP
  /// cells — whatever a stage charges via ChargeWork). Deterministic:
  /// independent of wall clock and thread count.
  static Deadline WithWorkBudget(uint64_t units);

  bool has_wall_deadline() const { return has_wall_; }
  bool has_work_budget() const { return has_budget_; }
  uint64_t work_budget() const { return work_budget_; }

  /// Charges `units` of completed work. Relaxed atomic add — callable from
  /// parallel shards; the total after a deterministic region completes is
  /// itself deterministic.
  void ChargeWork(uint64_t units) const {
    work_charged_.fetch_add(units, std::memory_order_relaxed);
  }
  uint64_t work_charged() const {
    return work_charged_.load(std::memory_order_relaxed);
  }

  /// Full expiry check; see class comment for where it may be called.
  bool Expired() const {
    if (latched_.load(std::memory_order_relaxed) !=
        static_cast<int>(DeadlineReason::kNone)) {
      return true;
    }
    return CheckSlow(/*include_work_budget=*/true);
  }

  /// Wall clock only; safe inside parallel shards.
  bool ExpiredUrgent() const {
    if (latched_.load(std::memory_order_relaxed) !=
        static_cast<int>(DeadlineReason::kNone)) {
      return true;
    }
    if (!has_wall_) return false;
    return CheckSlow(/*include_work_budget=*/false);
  }

  /// True when some earlier check latched expiry (no re-evaluation).
  bool expired() const {
    return latched_.load(std::memory_order_relaxed) !=
           static_cast<int>(DeadlineReason::kNone);
  }
  DeadlineReason reason() const {
    return static_cast<DeadlineReason>(
        latched_.load(std::memory_order_relaxed));
  }

 private:
  using Clock = std::chrono::steady_clock;

  bool CheckSlow(bool include_work_budget) const;
  /// First latch wins; later causes are ignored.
  void Latch(DeadlineReason reason) const;

  bool has_wall_ = false;
  Clock::time_point wall_deadline_{};
  bool has_budget_ = false;
  uint64_t work_budget_ = 0;

  mutable std::atomic<uint64_t> work_charged_{0};
  mutable std::atomic<int> latched_{static_cast<int>(DeadlineReason::kNone)};
};

/// How a deadline-limited stage left the pipeline. Stages fill this instead
/// of erroring: degradation is a property of the answer, not a failure.
struct DegradationInfo {
  bool degraded = false;
  /// Stage that stopped first: "collapse", "lower_bound", "prune",
  /// "pair_scoring", "segment_dp", "rank_resolution", "simplex".
  std::string stage;
  /// 1-based predicate level the stage was working on (0 when the stage is
  /// not per-level, e.g. segmentation).
  int level = 0;
  DeadlineReason reason = DeadlineReason::kNone;
  /// Work units charged to the deadline when the stage stopped, and the
  /// budget (0 when the deadline had no work budget).
  uint64_t work_done = 0;
  uint64_t work_budget = 0;
  /// True when the stage stopped mid-flight (its own output is partial);
  /// false when it stopped cleanly at a stage boundary, leaving the
  /// previous stages' outputs fully consistent.
  bool partial_stage = false;
};

/// Fills `info` for a query whose deadline expired in `stage` and bumps
/// the `deadline.degraded_queries` and `deadline.stage_stopped.<stage>`
/// counters. The first stop wins: a later call on an already degraded
/// `info` does nothing. `level` is the 1-based predicate level of a
/// per-level stage, 0 for query-level stages (pair scoring, segmentation,
/// rank resolution).
void MarkDegraded(const Deadline& deadline, const char* stage, int level,
                  bool partial_stage, DegradationInfo* info);

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_DEADLINE_H_
