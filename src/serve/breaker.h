#ifndef TOPKDUP_SERVE_BREAKER_H_
#define TOPKDUP_SERVE_BREAKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace topkdup::serve {

/// State of a per-dataset circuit breaker. Numeric values are the ones
/// exported on the `serve.breaker_state.<dataset>` gauge.
enum class BreakerState : int {
  kClosed = 0,    // Normal operation; outcomes feed the rolling window.
  kHalfOpen = 1,  // Cooldown elapsed; a probe quota tests the waters.
  kOpen = 2,      // Tripped; requests are served degraded until cooldown.
};

const char* BreakerStateName(BreakerState state);

struct BreakerOptions {
  /// Rolling window of the most recent request outcomes.
  size_t window = 32;
  /// Never trip before this many outcomes are in the window (a single
  /// failure on a cold service must not open the breaker).
  size_t min_samples = 8;
  /// Failure-or-shed fraction of the window at which the breaker opens.
  double trip_ratio = 0.5;
  /// How long an open breaker rejects before allowing half-open probes.
  int64_t cooldown_ms = 250;
  /// Half-open probe quota: at most this many probes in flight, and this
  /// many probe successes close the breaker again.
  int probe_quota = 2;
  /// Monotonic clock in milliseconds; tests inject a manual clock for
  /// deterministic state-machine coverage. Null uses steady_clock.
  std::function<int64_t()> now_ms;
};

/// Windowed per-dataset circuit breaker.
///
/// State machine: Closed --(failure/shed rate over the window >=
/// trip_ratio)--> Open --(cooldown elapses)--> HalfOpen --(probe_quota
/// probe successes)--> Closed. A failure or shed reported while not
/// Closed changes nothing; a half-open probe that does not succeed only
/// releases its slot.
///
/// The caller (QueryService) pairs every Admit() == kProceed/kProbe with
/// exactly one OnSuccess or OnAbandon carrying the same decision. Query
/// errors are the request's own (the pipeline is deterministic), so they
/// release the decision neutrally; what counts against the dataset are
/// admission-queue sheds (OnShed: a dataset drowning in traffic stops
/// accepting work it cannot finish) and ingest I/O failures (OnFailure).
/// Thread-safe.
class CircuitBreaker {
 public:
  enum class Decision {
    kProceed,  // Closed: execute normally.
    kProbe,    // HalfOpen: execute; probe_quota successes close it.
    kReject,   // Open (or probe quota busy): serve degraded / typed error.
  };

  explicit CircuitBreaker(BreakerOptions options);

  /// Admission decision for one request. May transition Open -> HalfOpen
  /// when the cooldown has elapsed.
  Decision Admit();

  /// A request previously admitted with `decision` succeeded.
  void OnSuccess(Decision decision);

  /// The request admitted with `decision` never executed (shed in queue,
  /// shutdown) or failed for a reason of its own. Releases a probe slot
  /// without judging the dataset — such a request says nothing about its
  /// health.
  void OnAbandon(Decision decision);

  /// A dataset failure outside any admitted request (an ingest I/O
  /// error), counted into the window; ignored while not Closed.
  void OnFailure();

  /// An admission-queue shed of a request for this dataset (counted into
  /// the window as a failure-class outcome; ignored while not Closed so an
  /// open breaker does not feed on its own rejections).
  void OnShed();

  BreakerState state() const;

 private:
  int64_t NowMs() const;
  void PushOutcomeLocked(bool failure);
  void TripLocked();

  BreakerOptions options_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  std::vector<bool> outcomes_;  // Ring buffer, true = failure.
  size_t next_ = 0;
  size_t count_ = 0;
  size_t failures_ = 0;
  int64_t opened_at_ms_ = 0;
  int probes_in_flight_ = 0;
  int probe_successes_ = 0;
};

}  // namespace topkdup::serve

#endif  // TOPKDUP_SERVE_BREAKER_H_
