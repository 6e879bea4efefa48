#pragma once

/// \file elementwise_kernel.hpp
/// The element-wise codec loops (range check, quantize, zigzag,
/// dequantize) as one source for every ISA tier: kernels.cpp,
/// kernels_avx2.cpp and kernels_avx512.cpp each include it and compile
/// it with their own target flags, so gcc's auto-vectorizer widens the
/// same loops to 16-, 32- and 64-byte vectors. CI's vectorization report
/// check pins those widths; keep the loops branch-free so the remarks
/// stay greppable. Everything here has internal linkage, as in
/// gaussian_kernel.hpp: a shared inline symbol could let the linker hand
/// one tier another tier's body.
///
/// Byte identity across tiers holds by construction: every tier runs
/// these statements, and with -ffp-contract=off each lane performs the
/// scalar IEEE operations (double product, round-half-away via
/// round_code_checked, correctly-rounded double→float narrowing).
/// Vectorization only changes the order of the integer min/max
/// reductions, which are associative.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "compress/kernels_dispatch.hpp"

namespace dlcomp::kernels::detail {
namespace {

/// Maps float bits to an int32 whose signed order is the float order
/// (negatives flip their magnitude bits); its own inverse. Integer
/// min/max vectorizes where float compares that must honor NaN do not.
inline std::int32_t float_order_key(std::int32_t bits) noexcept {
  return bits ^ ((bits >> 31) & 0x7FFFFFFF);
}

inline float float_from_order_key(std::int32_t key) noexcept {
  const std::int32_t bits = float_order_key(key);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// codes_in_range over sign-ordered integer keys; NaNs are the bit
/// patterns above +inf once the sign is cleared.
inline bool codes_in_range_loop(const float* in, std::size_t n,
                                double inv) {
  std::int32_t lo = kInt32Max;
  std::int32_t hi = kInt32Min;
  std::int32_t nan = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::int32_t bits;
    std::memcpy(&bits, in + i, sizeof(bits));
    const std::int32_t key = float_order_key(bits);
    lo = lane_min(lo, key);
    hi = lane_max(hi, key);
    nan |= static_cast<std::int32_t>((bits & 0x7FFFFFFF) > 0x7F800000);
  }
  return nan == 0 && extrema_fit_codes(float_from_order_key(lo),
                                       float_from_order_key(hi), inv);
}

inline void quantize_symbols_loop(const float* in, std::size_t n,
                                  double inv, std::uint32_t* sym) {
  for (std::size_t i = 0; i < n; ++i) {
    sym[i] = zigzag32(round_code_checked(static_cast<double>(in[i]) * inv));
  }
}

inline void quantize_codes_loop(const float* in, std::size_t n, double inv,
                                std::int32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = round_code_checked(static_cast<double>(in[i]) * inv);
  }
}

inline std::uint32_t max_zigzag_loop(const std::int32_t* codes,
                                     std::size_t n) {
  std::uint32_t max_symbol = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_symbol = lane_max(max_symbol, zigzag32(codes[i]));
  }
  return max_symbol;
}

inline void zigzag_loop(const std::int32_t* codes, std::size_t n,
                        std::uint32_t* sym) {
  for (std::size_t i = 0; i < n; ++i) sym[i] = zigzag32(codes[i]);
}

inline void dequantize_codes_loop(const std::int32_t* in, std::size_t n,
                                  double step, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(static_cast<double>(in[i]) * step);
  }
}

inline void dequantize_symbols_loop(const std::uint32_t* in, std::size_t n,
                                    double step, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(
        static_cast<double>(unzigzag32(in[i])) * step);
  }
}

}  // namespace
}  // namespace dlcomp::kernels::detail
