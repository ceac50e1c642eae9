// Deterministic, seedable pseudo-random number generation.
//
// Every synthetic artifact in the repo (table contents, query streams,
// arrival processes) is derived from an explicit seed so experiments are
// reproducible run-to-run and across machines.
#pragma once

#include <cstdint>
#include <vector>

namespace microrec {

/// xoshiro256** PRNG. Fast, high-quality, 2^256-1 period; satisfies
/// UniformRandomBitGenerator so it plugs into <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state via SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() { return Next(); }

  std::uint64_t Next();

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform float in [lo, hi).
  float NextFloat(float lo, float hi);

  /// Standard normal via Marsaglia polar method.
  double NextGaussian();

 private:
  std::uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// SplitMix64 step; also usable standalone for seed hashing.
std::uint64_t SplitMix64(std::uint64_t& state);

/// Deterministically combines a base seed with a stream index.
std::uint64_t HashSeed(std::uint64_t base, std::uint64_t stream);

}  // namespace microrec
