// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in dsnet (deployments, attach tie-breaking,
// failure injection, workload generators) flows through `Rng` so that every
// experiment is exactly reproducible from a 64-bit seed. The generator is
// xoshiro256** seeded via SplitMix64 — fast, high quality, and stable
// across platforms (unlike std::mt19937 + std::uniform_*_distribution,
// whose outputs are not portable between standard libraries).
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace dsn {

/// SplitMix64's golden-ratio increment.
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ull;

/// SplitMix64 finalizer of z + gamma: every input bit avalanches into
/// every output bit. Generator seeding, seed-stream derivation
/// (ExperimentConfig::trialSeed, the fuzz streams), the reliable
/// broadcast's hash coins and deployment fingerprints all mix through it.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z += kSplitMixGamma;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic, portable PRNG (xoshiro256**).
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [0, bound). `bound` must be positive.
  /// Uses rejection sampling, so the result is exactly uniform.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniformReal();

  /// Uniform double in [lo, hi).
  double uniformReal(double lo, double hi);

  /// Bernoulli trial: true with probability `p` (clamped to [0,1]).
  bool chance(double p);

  /// Fisher–Yates shuffle of an index-addressable container.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random element index of a non-empty container.
  template <typename T>
  std::size_t pickIndex(const std::vector<T>& v) {
    DSN_REQUIRE(!v.empty(), "pickIndex on empty container");
    return static_cast<std::size_t>(uniform(v.size()));
  }

  /// Derive an independent child generator (for per-trial streams).
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace dsn
