// Deterministic, seedable random number generation for workload generators
// and experiments. Uses xoshiro256** internally; all experiment randomness
// must flow through Rng so runs are reproducible from a single seed.
#ifndef GRAPHTIDES_COMMON_RANDOM_H_
#define GRAPHTIDES_COMMON_RANDOM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace graphtides {

/// \brief Fast, seedable PRNG (xoshiro256**, seeded via splitmix64).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform integer in [0, bound) using Lemire's method. bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with success probability p.
  bool NextBool(double p);

  /// Standard normal via Box–Muller (cached second value).
  double NextGaussian();

  /// Index sampled from unnormalized non-negative `weights`.
  /// Returns weights.size() if all weights are zero.
  size_t NextWeighted(const std::vector<double>& weights);

  /// Same over a raw array — lets hot paths sample from stack buffers
  /// without building a vector. Returns n if all weights are zero.
  size_t NextWeighted(const double* weights, size_t n);

  /// Derives an independent child generator (for parallel components).
  Rng Fork();

  /// \brief Snapshot of the raw generator state, for checkpoint/resume.
  ///
  /// Restoring a snapshot reproduces the exact uniform-draw sequence; a
  /// half-consumed Box–Muller pair is not carried over (the next Gaussian
  /// draws a fresh pair).
  std::array<uint64_t, 4> SaveState() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void RestoreState(const std::array<uint64_t, 4>& state) {
    for (size_t i = 0; i < 4; ++i) s_[i] = state[i];
    has_cached_gaussian_ = false;
  }

 private:
  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// \brief Samples from a Zipf distribution over ranks {0, ..., n-1}.
///
/// Rank 0 is the most probable. Uses precomputed cumulative weights plus
/// binary search; rebuildable when n changes. Exponent s >= 0 (s = 0 gives
/// the uniform distribution).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);

  size_t n() const { return cum_.size(); }
  double exponent() const { return exponent_; }

  /// Draws a rank in [0, n).
  size_t Sample(Rng& rng) const;

  /// Probability mass of a given rank.
  double Pmf(size_t rank) const;

 private:
  double exponent_;
  std::vector<double> cum_;  // cumulative, normalized to cum_.back() == 1.
};

}  // namespace graphtides

#endif  // GRAPHTIDES_COMMON_RANDOM_H_
