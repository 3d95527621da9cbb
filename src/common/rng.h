#ifndef TOPKDUP_COMMON_RNG_H_
#define TOPKDUP_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace topkdup {

/// The splitmix64 output function: the value a splitmix64 generator in
/// state `x` returns next. A fixed bijective mix of one 64-bit key, shared
/// by every keyed deterministic draw in the library (explain and
/// request-log sampling, fault draws) and by Rng's seeding.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic pseudo-random generator (xoshiro256** seeded by splitmix64).
///
/// Every stochastic component in the library (data generators, trainers,
/// samplers) draws from an explicitly seeded Rng so that all experiments are
/// reproducible from the seed printed by the bench harness.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// True with probability p.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = Uniform(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool have_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// Sampler for a Zipfian distribution over {0, ..., n-1} with exponent s:
/// P(i) proportional to 1 / (i + 1)^s. Used to model skewed entity
/// popularity (the paper notes "real-life distributions are skewed").
class ZipfSampler {
 public:
  /// Builds the cumulative table. n must be >= 1, s >= 0.
  ZipfSampler(size_t n, double s);

  /// Draws one rank in [0, n).
  size_t Sample(Rng* rng) const;

  /// Probability mass of rank i.
  double Pmf(size_t i) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_RNG_H_
