#pragma once

/// \file gaussian_kernel.hpp
/// The branch-free Box-Muller transform behind Rng::fill_normal, shared
/// source for the per-ISA kernel tables: kernels.cpp, kernels_avx2.cpp
/// and kernels_avx512.cpp each include it and compile it with their own
/// target flags, -ffp-contract=off and -fno-math-errno (which lets the
/// square root vectorize). Everything here has internal linkage so each
/// TU keeps its own copy: a shared inline symbol could let the linker
/// hand the scalar tier an AVX-512 body.
///
/// The transform does not have to match libm bit for bit. It returns, per
/// value, a candidate v' for `mean + stddev * r * cos|sin(θ)` with
/// r = sqrt(-2 log u1), θ = 2π u2, and a radius E with |v' - v_libm| <= E
/// for every libm within 1 ulp on log, sin and cos. Rng::fill_normal
/// accepts float(v') only when the whole interval [v' - E, v' + E] rounds
/// to one float and recomputes the pair with libm otherwise (DESIGN.md
/// "Exact fast path"). The pieces are fdlibm's: log via the
/// s = f / (2 + f) series, sin/cos via a three-part Cody-Waite reduction
/// by π/2 and the [-π/4, π/4] polynomials.
///
/// Error budget (relative to the result, in units of 2^-52): log 1 + libm
/// 1; sqrt roundings 1; reduction 1, kernel 1 + libm 1; three products
/// 3 — about 2^-49 in all, plus one rounding of `mean + p`. E is 2^-40
/// of |mean| + |p|, so it holds with a wide margin that test_rng checks
/// (the observed error stays below E/16), and the fallback fires for
/// about 2 in 10^5 values.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>

namespace dlcomp::kernels::detail {
namespace {

/// Relative error radius of a candidate; see the budget above.
constexpr double kNormalRadius = 0x1p-40;

/// log(x) for normal x > 0 (fdlibm e_log.c, one branch-free path).
inline double gaussian_log(double x) noexcept {
  constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kLg1 = 0x1.5555555555593p-1;
  constexpr double kLg2 = 0x1.999999997fa04p-2;
  constexpr double kLg3 = 0x1.2492494229359p-2;
  constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
  constexpr double kLg5 = 0x1.7466496cb03dep-3;
  constexpr double kLg6 = 0x1.39a09d078c69fp-3;
  constexpr double kLg7 = 0x1.2f112df3e5244p-3;
  // fdlibm's fold of the mantissa into [sqrt(2)/2, sqrt(2)), in integer
  // ops so the loop stays free of control flow: adding 0x95f64 to the top
  // mantissa bits carries into the exponent exactly when m >= ~sqrt(2),
  // and that carry both halves m and bumps the exponent k.
  const std::uint64_t bits = __builtin_bit_cast(std::uint64_t, x);
  const std::uint64_t mant = bits & 0x000FFFFFFFFFFFFFULL;
  const std::uint64_t carry = (mant + (0x95f64ULL << 32)) & (1ULL << 52);
  const double m =
      __builtin_bit_cast(double, mant | (carry ^ 0x3FF0000000000000ULL));
  // k as an exact double: (2^52 + e) - (2^52 + 1023).
  const std::uint64_t biased_k = (bits >> 52) + (carry >> 52);
  const double k =
      __builtin_bit_cast(double, 0x4330000000000000ULL + biased_k) -
      (0x1p52 + 1023.0);
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

/// sin and cos of y in about [-π/4, π/4] (fdlibm k_sin.c / k_cos.c with
/// no tail term).
inline double gaussian_sin(double y) noexcept {
  constexpr double kS1 = -0x1.5555555555549p-3;
  constexpr double kS2 = 0x1.111111110f8a6p-7;
  constexpr double kS3 = -0x1.a01a019c161d5p-13;
  constexpr double kS4 = 0x1.71de357b1fe7dp-19;
  constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
  constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
  const double z = y * y;
  const double v = z * y;
  const double r = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  return y + v * (kS1 + z * r);
}

inline double gaussian_cos(double y) noexcept {
  constexpr double kC1 = 0x1.555555555554cp-5;
  constexpr double kC2 = -0x1.6c16c16c15177p-10;
  constexpr double kC3 = 0x1.a01a019cb1590p-16;
  constexpr double kC4 = -0x1.27e4f809c52adp-22;
  constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
  constexpr double kC6 = -0x1.8fae9be8838d4p-37;
  const double z = y * y;
  const double r =
      z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  return w + (((1.0 - w) - hz) + z * r);
}

/// The candidate loop: pair i's cos and sin values and their radii E.
/// u1[i] must lie in (0, 1) and u2[i] in [0, 1). The arrays must not
/// overlap; __restrict spares the vectorizer the run-time alias checks,
/// too many of which make it give up on the loop.
inline void normal_candidates_block(
    const double* __restrict u1, const double* __restrict u2, std::size_t n,
    double mean, double stddev, double* __restrict cos_value,
    double* __restrict sin_value, double* __restrict cos_radius,
    double* __restrict sin_radius) noexcept {
  constexpr double kTwoPi = 2.0 * std::numbers::pi;  // exact, as in Rng
  constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
  constexpr double kPio2_1 = 0x1.921fb54400000p+0;   // 33 bits
  constexpr double kPio2_2 = 0x1.0b4611a600000p-34;  // next 33 bits
  constexpr double kPio2_2t = 0x1.3198a2e037073p-69;
  constexpr double kRound = 0x1.8p52;
  const double mean_abs = std::fabs(mean);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = std::sqrt(-2.0 * gaussian_log(u1[i]));
    const double angle = kTwoPi * u2[i];
    // Quadrant q in {0..4} and y = angle - q π/2: q * kPio2_1 is exact
    // and so is its difference with angle (Sterbenz); the second part
    // carries its own rounding error into the third.
    const double biased = angle * kInvPio2 + kRound;
    const std::uint64_t quadrant = __builtin_bit_cast(std::uint64_t, biased);
    const double q = biased - kRound;
    const double t = angle - q * kPio2_1;
    const double w = q * kPio2_2;
    const double hi = t - w;
    const double y = hi - (q * kPio2_2t - ((t - hi) - w));
    const std::uint64_t sy =
        __builtin_bit_cast(std::uint64_t, gaussian_sin(y));
    const std::uint64_t cy =
        __builtin_bit_cast(std::uint64_t, gaussian_cos(y));
    // Odd quadrants swap sin and cos; cos(angle) is negative in quadrants
    // 1 and 2, sin(angle) in 2 and 3. Bit selects and sign flips keep the
    // loop free of control flow.
    const std::uint64_t swap = 0 - (quadrant & 1);
    const std::uint64_t c =
        ((sy & swap) | (cy & ~swap)) ^ (((quadrant + 1) & 2) << 62);
    const std::uint64_t s =
        ((cy & swap) | (sy & ~swap)) ^ ((quadrant & 2) << 62);
    const double pc = stddev * (r * __builtin_bit_cast(double, c));
    const double ps = stddev * (r * __builtin_bit_cast(double, s));
    cos_value[i] = mean + pc;
    sin_value[i] = mean + ps;
    cos_radius[i] = kNormalRadius * (mean_abs + std::fabs(pc));
    sin_radius[i] = kNormalRadius * (mean_abs + std::fabs(ps));
  }
}

/// KernelOps::normal_candidates: value[i] and value[n + i] are the cos
/// and sin values of pair i, radius[] their E.
inline void normal_candidates_loop(const double* u1, const double* u2,
                                   std::size_t n, double mean, double stddev,
                                   double* value, double* radius) noexcept {
  normal_candidates_block(u1, u2, n, mean, stddev, value, value + n, radius,
                          radius + n);
}

}  // namespace
}  // namespace dlcomp::kernels::detail
