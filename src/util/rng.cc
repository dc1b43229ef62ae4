#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace fume {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  // Seed the four lanes through SplitMix64 as recommended by the authors.
  uint64_t sm = seed;
  for (auto& lane : s_) {
    sm += 0x9e3779b97f4a7c15ULL;
    lane = Mix64(sm);
  }
}

uint64_t Rng::Next() {
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
  FUME_DCHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(Next()) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

int Rng::NextInt(int lo, int hi) {
  FUME_DCHECK(lo <= hi);
  return lo + static_cast<int>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  FUME_DCHECK(k <= n);
  std::vector<int> out;
  out.reserve(static_cast<size_t>(k));
  // Selection sampling (Knuth 3.4.2 algorithm S): O(n), ordered output.
  int seen = 0;
  for (int i = 0; i < n && static_cast<int>(out.size()) < k; ++i) {
    const int remaining_needed = k - static_cast<int>(out.size());
    const int remaining_pool = n - seen;
    if (NextDouble() * remaining_pool < remaining_needed) {
      out.push_back(i);
    }
    ++seen;
  }
  return out;
}

int Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    FUME_DCHECK(w >= 0.0);
    total += w;
  }
  FUME_DCHECK(total > 0.0);
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

}  // namespace fume
