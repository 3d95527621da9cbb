#include "serve/cost_model.h"

#include <algorithm>

#include "common/strings.h"

namespace topkdup::serve {

CostModel::CostModel(double alpha)
    : alpha_(std::clamp(alpha, 0.01, 1.0)) {}

void CostModel::Observe(const Observation& observation) {
  std::lock_guard<std::mutex> lock(mu_);
  const double cpu = std::max(observation.cpu_seconds, 0.0);
  const double wall = std::max(observation.wall_seconds, 0.0);
  const double pairs = static_cast<double>(observation.candidate_pairs);
  const double postings = static_cast<double>(observation.postings_decoded);
  if (samples_ == 0) {
    cpu_ = cpu;
    wall_ = wall;
    pairs_ = pairs;
    postings_ = postings;
  } else {
    cpu_ += alpha_ * (cpu - cpu_);
    wall_ += alpha_ * (wall - wall_);
    pairs_ += alpha_ * (pairs - pairs_);
    postings_ += alpha_ * (postings - postings_);
  }
  ++samples_;
}

CostModel::Prediction CostModel::Predict() const {
  std::lock_guard<std::mutex> lock(mu_);
  Prediction prediction;
  if (samples_ == 0) return prediction;
  prediction.valid = true;
  prediction.pairs = pairs_;
  prediction.postings = postings_;
  if (pairs_ > 0.0) prediction.cpu_per_pair_ns = cpu_ / pairs_ * 1e9;
  if (postings_ > 0.0) {
    prediction.cpu_per_posting_ns = cpu_ / postings_ * 1e9;
  }
  prediction.cpu_seconds = cpu_;
  prediction.wall_seconds = wall_;
  return prediction;
}

std::string CostModel::DebugJson() const {
  const Prediction p = Predict();
  uint64_t n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = samples_;
  }
  return StrFormat(
      "{\"samples\":%llu,\"cpu_per_pair_ns\":%.2f,"
      "\"cpu_per_posting_ns\":%.2f,\"pairs\":%.0f,\"postings\":%.0f,"
      "\"predicted_cpu_ms\":%.3f,\"predicted_wall_ms\":%.3f}",
      static_cast<unsigned long long>(n), p.cpu_per_pair_ns,
      p.cpu_per_posting_ns, p.pairs, p.postings, p.cpu_seconds * 1000.0,
      p.wall_seconds * 1000.0);
}

}  // namespace topkdup::serve
