#pragma once

/// \file kernels_dispatch.hpp
/// Internal contract between kernels.cpp (argument validation, error
/// reporting, histogram accumulation, dispatch) and the per-ISA tables
/// (kernels.cpp scalar, kernels_avx2.cpp, kernels_avx512.cpp). Each entry
/// is a branch-free inner loop over pre-validated data: the public
/// wrappers have already rejected empty / mismatched spans, checked
/// eb > 0, and (for the quantize loops) proven through the tier's own
/// `codes_in_range` that every scaled value fits an int32 code, so
/// implementations may use packed truncating conversions without
/// per-element guards.
///
/// Most entries have one source. The element-wise loops live in
/// elementwise_kernel.hpp and the Box-Muller transform in
/// gaussian_kernel.hpp; every tier compiles them with its own target
/// flags and lets gcc vectorize them. A loop stays hand-written only
/// where a paired microbench shows the intrinsics faster than the shared
/// source at that tier (DESIGN.md "Parallel framing and SIMD dispatch"):
/// AVX2's staggered Lorenzo pair, which AVX-512 forwards to, and
/// AVX-512's float `codes_in_range`.
///
/// Byte-identity contract: every codec implementation must reproduce the
/// scalar loops' per-element arithmetic exactly — double products and
/// divides (IEEE-correctly rounded in any width), round-half-away-from-
/// zero via the shared helpers below, float stores as correctly-rounded
/// double→float narrowing. The differential suite in
/// test_codec_hotpath.cpp compares every compiled-in variant against
/// the test-only oracle tests/support/reference_kernels.hpp on edge
/// shapes and random sweeps.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "compress/simd.hpp"

namespace dlcomp::kernels::detail {

// The rounding and range helpers run inside every tier's loops, so they
// have internal linkage like the shared loop headers: each TU keeps its
// own copy, compiled with its own target flags, even in an unoptimized
// build that does not inline them.
namespace {

// The tier TUs call nothing with external linkage: no std::min/max, no
// std::bit_cast, no numeric_limits call, no header-inline zigzag. An
// unoptimized build emits each of those as a weak symbol in VEX or EVEX
// encoding, and the linker may keep that copy for the whole program.
// CI compiles both tier TUs at -O0 and fails on any weak symbol.

/// std::min / std::max by value, with their exact comparison semantics.
template <typename T>
inline T lane_min(T a, T b) noexcept {
  return b < a ? b : a;
}
template <typename T>
inline T lane_max(T a, T b) noexcept {
  return a < b ? b : a;
}

/// zigzag_encode32 / zigzag_decode32 (common/bitstream.hpp).
inline std::uint32_t zigzag32(std::int32_t v) noexcept {
  return (static_cast<std::uint32_t>(v) << 1) ^
         static_cast<std::uint32_t>(v >> 31);
}
inline std::int32_t unzigzag32(std::uint32_t v) noexcept {
  return static_cast<std::int32_t>(v >> 1) ^
         -static_cast<std::int32_t>(v & 1);
}

constexpr std::int32_t kInt32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kInt32Max = std::numeric_limits<std::int32_t>::max();

/// Round-half-away-from-zero, clamped into int64 so the cast stays
/// defined on garbage residuals (inf/NaN → deterministic values). Used
/// by the Lorenzo loops, whose residuals carry no up-front range check.
inline std::int32_t round_code(double t) noexcept {
  double biased = t + (t >= 0.0 ? 0.5 : -0.5);
  if (!(biased > -9.2e18 && biased < 9.2e18)) [[unlikely]] {
    biased = biased != biased  // NaN has no ordering with itself
                 ? 0.0
                 : (biased < 0.0 ? -9.2e18 : 9.2e18);
  }
  return static_cast<std::int32_t>(static_cast<std::int64_t>(biased));
}

/// Same rounding for values already proven inside the int32 code range:
/// the narrow cast maps to a packed double→int32 conversion, and the sign
/// bit of `t` selects the bias without a compare (a blend the vectorizer
/// would otherwise emit). It differs from round_code's bias only at
/// t == -0.0, where both give code 0.
inline std::int32_t round_code_checked(double t) noexcept {
  return static_cast<std::int32_t>(t + std::copysign(0.5, t));
}

/// The quantize loops' precondition over the input extrema: scaled values
/// are monotone in the input, so when lo * inv and hi * inv fit an int32
/// code every element's product does. Shared by every `codes_in_range`
/// so the tiers decide on the same double products.
inline bool extrema_fit_codes(float lo, float hi, double inv) noexcept {
  return static_cast<double>(lo) * inv >= static_cast<double>(kInt32Min) &&
         static_cast<double>(hi) * inv <= static_cast<double>(kInt32Max);
}

}  // namespace

/// One ISA tier's inner loops. All pointers are non-null and n > 0
/// unless stated; `inv` is 1/(2*eb), `step` is 2*eb.
struct KernelOps {
  /// True when no in[i] is NaN and the extrema pass extrema_fit_codes:
  /// exactly the inputs the quantize loops below accept.
  bool (*codes_in_range)(const float* in, std::size_t n, double inv);
  /// sym[i] = zigzag(round(in[i] * inv)); range pre-checked.
  void (*quantize_symbols)(const float* in, std::size_t n, double inv,
                           std::uint32_t* sym);
  /// codes[i] = round(in[i] * inv); range pre-checked.
  void (*quantize_codes)(const float* in, std::size_t n, double inv,
                         std::int32_t* codes);
  /// max over zigzag(codes[i]).
  std::uint32_t (*max_zigzag)(const std::int32_t* codes, std::size_t n);
  /// sym[i] = zigzag(codes[i]).
  void (*zigzag)(const std::int32_t* codes, std::size_t n,
                 std::uint32_t* sym);
  /// out[i] = float(codes[i] * step).
  void (*dequantize_codes)(const std::int32_t* codes, std::size_t n,
                           double step, float* out);
  /// out[i] = float(unzigzag(sym[i]) * step).
  void (*dequantize_symbols)(const std::uint32_t* sym, std::size_t n,
                             double step, float* out);
  /// Full fused Lorenzo passes, boundary handling included (n > 0,
  /// dim > 0; the tail row may be short).
  void (*lorenzo_encode)(const float* in, std::size_t n, std::size_t dim,
                         double step, float* rc, std::uint32_t* sym);
  void (*lorenzo_decode)(const std::uint32_t* sym, std::size_t n,
                         std::size_t dim, double step, float* out);
  /// Box-Muller candidates for n uniform pairs, u1[i] in (0, 1) and
  /// u2[i] in [0, 1): value[i] / value[n + i] approximate the libm values
  /// of mean + stddev * sqrt(-2 log u1) * cos / sin(2 pi u2) and radius[]
  /// bounds each one's distance to them. The candidates need not equal
  /// libm's values; only the floats Rng::fill_normal accepts through the
  /// radii must. One shared source, gaussian_kernel.hpp.
  void (*normal_candidates)(const double* u1, const double* u2,
                            std::size_t n, double mean, double stddev,
                            double* value, double* radius);
};

/// Always available; lives in kernels.cpp.
[[nodiscard]] const KernelOps& scalar_ops() noexcept;

/// Per-ISA tables; nullptr when the variant was not compiled in (non-x86
/// targets, or a toolchain without the -m flags).
[[nodiscard]] const KernelOps* avx2_ops() noexcept;
[[nodiscard]] const KernelOps* avx512_ops() noexcept;

/// Table for `isa`, or nullptr when unavailable in this binary.
[[nodiscard]] const KernelOps* ops_for(simd::Isa isa) noexcept;

}  // namespace dlcomp::kernels::detail
