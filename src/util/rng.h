// Deterministic random number generation.
//
// Everything random in this codebase is keyed: a node in a DaRE tree draws
// its random split from Hash64(seed, tree_id, node_path), never from shared
// mutable generator state. That makes tree construction a pure function of
// (data, seed) and is what lets the test suite assert exact unlearning as
// structural equality (DESIGN.md §2).

#ifndef FUME_UTIL_RNG_H_
#define FUME_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace fume {

/// SplitMix64 mixing step: maps any 64-bit value to a well-distributed one.
/// Inline: every split decision, candidate-attribute draw and child path
/// key of every tree build and deletion goes through it.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes a variable-length sequence of 64-bit words into one word.
inline uint64_t Hash64(std::initializer_list<uint64_t> words) {
  uint64_t h = 0x51ed270b76b0b7c9ULL;
  for (uint64_t w : words) {
    h = Mix64(h ^ Mix64(w));
  }
  return h;
}

/// \brief xoshiro256** generator: small, fast, passes BigCrush.
///
/// Used for stream-style randomness (shuffles, synthetic data). For keyed
/// randomness use Hash64 directly.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t Next();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// true with probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Uniform int in [lo, hi] inclusive.
  int NextInt(int lo, int hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) in increasing order
  /// (reservoir-free selection sampling).
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// Draws an index according to non-negative weights (sum need not be 1).
  int NextWeighted(const std::vector<double>& weights);

 private:
  uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace fume

#endif  // FUME_UTIL_RNG_H_
