#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace topkdup {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
    sm += 0x9e3779b97f4a7c15ull;
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  TOPKDUP_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  TOPKDUP_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  if (have_gaussian_) {
    have_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = NextDouble();
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  have_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

ZipfSampler::ZipfSampler(size_t n, double s) {
  TOPKDUP_CHECK(n >= 1);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

double ZipfSampler::Pmf(size_t i) const {
  TOPKDUP_CHECK(i < cdf_.size());
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

}  // namespace topkdup
