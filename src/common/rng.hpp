#pragma once

/// \file rng.hpp
/// Deterministic, splittable random number generation.
///
/// All randomness in dlcomp flows through Rng so that every experiment is
/// bitwise reproducible regardless of thread scheduling: SPMD ranks and
/// per-iteration streams derive independent generators with
/// Rng::fork(tag...), which hashes the tags into a fresh seed instead of
/// sharing mutable state across threads.

#include <array>
#include <bit>
#include <cstdint>
#include <span>

namespace dlcomp {

/// splitmix64 step; used for seeding and for hashing fork tags.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** engine with convenience distributions. Satisfies
/// UniformRandomBitGenerator so it interoperates with <random> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x5EEDDA7A5EEDDA7AULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Raw 64 random bits. Inline, like next_double: the serial uniform
  /// draw is the floor of every bulk distribution below.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }
  result_type operator()() noexcept { return next_u64(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t next_below(std::uint64_t n) noexcept;

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform float in [lo, hi).
  float uniform_float(float lo, float hi) noexcept;

  /// Standard normal via Box-Muller (cached second value).
  double normal() noexcept;

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev) noexcept;

  /// Bulk draw: the same floats, and the same generator state afterwards
  /// (cached second value included), as
  /// `for (auto& v : out) v = static_cast<float>(normal(mean, stddev));`
  /// but about 4x faster with the AVX2 or AVX-512 kernels (2.6x on the
  /// scalar tier). Uniform pairs are drawn serially, transformed
  /// by the dispatched SIMD kernel with an error bound, and any value
  /// that bound cannot pin to one float is recomputed with libm
  /// (DESIGN.md "Exact fast path").
  void fill_normal(std::span<float> out, double mean, double stddev) noexcept;

  /// Bernoulli draw.
  bool bernoulli(double p) noexcept;

  /// Derives an independent generator from this one's seed material and a
  /// list of integer tags. Deterministic: the same parent seed and tags
  /// always produce the same child. Does not advance this generator.
  [[nodiscard]] Rng fork(std::initializer_list<std::uint64_t> tags) const noexcept;

  /// Convenience two-tag fork.
  [[nodiscard]] Rng fork(std::uint64_t a, std::uint64_t b = 0x9E3779B9ULL) const noexcept {
    return fork({a, b});
  }

  /// Fisher-Yates shuffle of a span.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace dlcomp
