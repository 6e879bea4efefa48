#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "compress/kernels.hpp"

namespace dlcomp {

namespace {

/// The Box-Muller transform of one uniform pair, as libm computes it:
/// normal() and fill_normal's fallback share this expression, so the two
/// agree bit for bit (this TU is built with -ffp-contract=off).
inline void box_muller(double u1, double u2, double& cos_value,
                       double& sin_value) noexcept {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cos_value = radius * std::cos(angle);
  sin_value = radius * std::sin(angle);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_below(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded draw; bias is negligible for the
  // ranges used here but we still reject to keep draws exactly uniform.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

float Rng::uniform_float(float lo, float hi) noexcept {
  return static_cast<float>(uniform(lo, hi));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  double cos_value = 0.0;
  box_muller(u1, u2, cos_value, cached_normal_);
  has_cached_normal_ = true;
  return cos_value;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

void Rng::fill_normal(std::span<float> out, double mean,
                      double stddev) noexcept {
  std::size_t i = 0;
  if (has_cached_normal_ && !out.empty()) {
    out[i++] = static_cast<float>(normal(mean, stddev));
  }
  // Blocks of pairs small enough to stay in L1 (12 KiB of buffers).
  // Left uninitialized: phases 1 and 2 write every element phase 3
  // reads, and clustered tables call this once per row.
  constexpr std::size_t kBlock = 256;
  std::array<double, kBlock> u1;
  std::array<double, kBlock> u2;
  std::array<double, 2 * kBlock> value;
  std::array<double, 2 * kBlock> radius;
  while (out.size() - i >= 2) {
    const std::size_t pairs = std::min(kBlock, (out.size() - i) / 2);
    // Phase 1: the uniforms, in normal()'s order and with its u1 redraw.
    for (std::size_t p = 0; p < pairs; ++p) {
      do {
        u1[p] = next_double();
      } while (u1[p] <= 0.0);
      u2[p] = next_double();
    }
    // Phase 2: candidates and error radii from the SIMD kernel.
    kernels::normal_candidates({u1.data(), pairs}, {u2.data(), pairs}, mean,
                               stddev, {value.data(), 2 * pairs},
                               {radius.data(), 2 * pairs});
    // Phase 3: accept a value when its whole error interval rounds to one
    // float (then the libm value does too); otherwise redo the pair with
    // libm.
    float* dst = out.data() + i;
    for (std::size_t p = 0; p < pairs; ++p) {
      const double vc = value[p];
      const double ec = radius[p];
      const double vs = value[pairs + p];
      const double es = radius[pairs + p];
      float c = static_cast<float>(vc - ec);
      float s = static_cast<float>(vs - es);
      if (c != static_cast<float>(vc + ec) ||
          s != static_cast<float>(vs + es)) [[unlikely]] {
        double zc = 0.0;
        double zs = 0.0;
        box_muller(u1[p], u2[p], zc, zs);
        c = static_cast<float>(mean + stddev * zc);
        s = static_cast<float>(mean + stddev * zs);
      }
      dst[2 * p] = c;
      dst[2 * p + 1] = s;
    }
    i += 2 * pairs;
  }
  // An odd tail draws one more pair and caches its sine, as normal() does.
  if (i < out.size()) out[i] = static_cast<float>(normal(mean, stddev));
}

bool Rng::bernoulli(double p) noexcept { return next_double() < p; }

Rng Rng::fork(std::initializer_list<std::uint64_t> tags) const noexcept {
  std::uint64_t h = state_[0] ^ std::rotl(state_[2], 29);
  for (const std::uint64_t tag : tags) {
    h ^= tag + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    (void)splitmix64(h);
  }
  return Rng{h};
}

}  // namespace dlcomp
