#include "serve/breaker.h"

#include <algorithm>
#include <chrono>

namespace topkdup::serve {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kHalfOpen:
      return "half_open";
    case BreakerState::kOpen:
      return "open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(BreakerOptions options)
    : options_(std::move(options)),
      outcomes_(std::max<size_t>(options_.window, 1), false) {
  options_.window = outcomes_.size();
  options_.min_samples = std::max<size_t>(options_.min_samples, 1);
  options_.probe_quota = std::max(options_.probe_quota, 1);
}

int64_t CircuitBreaker::NowMs() const {
  if (options_.now_ms) return options_.now_ms();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CircuitBreaker::PushOutcomeLocked(bool failure) {
  if (count_ == outcomes_.size()) {
    if (outcomes_[next_]) --failures_;  // Evict the oldest outcome.
  } else {
    ++count_;
  }
  outcomes_[next_] = failure;
  if (failure) ++failures_;
  next_ = (next_ + 1) % outcomes_.size();
}

void CircuitBreaker::TripLocked() {
  state_ = BreakerState::kOpen;
  opened_at_ms_ = NowMs();
  probes_in_flight_ = 0;
  probe_successes_ = 0;
}

// A kReject is not a refusal to answer: the service turns it into a
// bounds-only response from the dataset's AnswerCache (DegradedFromCache),
// widening the cached upper bounds by the weight *published* since the
// entry's epoch. Epoch-based widening — not capture-time wall state — is
// what keeps the degraded answer sound across recovery replay and
// restarts; see serve/answer_cache.h.
CircuitBreaker::Decision CircuitBreaker::Admit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == BreakerState::kOpen) {
    if (NowMs() - opened_at_ms_ < options_.cooldown_ms) {
      return Decision::kReject;
    }
    state_ = BreakerState::kHalfOpen;
    probes_in_flight_ = 0;
    probe_successes_ = 0;
  }
  if (state_ == BreakerState::kHalfOpen) {
    if (probes_in_flight_ >= options_.probe_quota) return Decision::kReject;
    ++probes_in_flight_;
    return Decision::kProbe;
  }
  return Decision::kProceed;
}

void CircuitBreaker::OnSuccess(Decision decision) {
  std::lock_guard<std::mutex> lock(mu_);
  if (decision == Decision::kProbe) {
    probes_in_flight_ = std::max(0, probes_in_flight_ - 1);
    if (state_ != BreakerState::kHalfOpen) return;  // Reopened meanwhile.
    if (++probe_successes_ >= options_.probe_quota) {
      state_ = BreakerState::kClosed;
      count_ = failures_ = next_ = 0;  // Fresh window after recovery.
      std::fill(outcomes_.begin(), outcomes_.end(), false);
    }
    return;
  }
  if (state_ == BreakerState::kClosed) PushOutcomeLocked(false);
}

void CircuitBreaker::OnFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != BreakerState::kClosed) return;
  PushOutcomeLocked(true);
  if (count_ >= options_.min_samples &&
      static_cast<double>(failures_) >=
          options_.trip_ratio * static_cast<double>(count_)) {
    TripLocked();
  }
}

void CircuitBreaker::OnAbandon(Decision decision) {
  std::lock_guard<std::mutex> lock(mu_);
  if (decision == Decision::kProbe) {
    probes_in_flight_ = std::max(0, probes_in_flight_ - 1);
  }
}

void CircuitBreaker::OnShed() { OnFailure(); }

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

}  // namespace topkdup::serve
