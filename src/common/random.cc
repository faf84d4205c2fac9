#include "common/random.h"

#include <cassert>
#include <cmath>

namespace graphtides {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  has_cached_gaussian_ = false;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  __uint128_t m = static_cast<__uint128_t>(NextU64()) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(NextU64()) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextDouble() {
  // 53 high bits -> uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  return NextWeighted(weights.data(), weights.size());
}

size_t Rng::NextWeighted(const double* weights, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += weights[i];
  if (total <= 0.0) return n;
  double x = NextDouble() * total;
  for (size_t i = 0; i < n; ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return n - 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

ZipfSampler::ZipfSampler(size_t n, double exponent) : exponent_(exponent) {
  assert(n > 0);
  cum_.resize(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cum_[i] = acc;
  }
  for (auto& c : cum_) c /= acc;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  size_t lo = 0;
  size_t hi = cum_.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (cum_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double ZipfSampler::Pmf(size_t rank) const {
  assert(rank < cum_.size());
  return rank == 0 ? cum_[0] : cum_[rank] - cum_[rank - 1];
}

}  // namespace graphtides
