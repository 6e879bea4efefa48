/// \file kernels_avx512.cpp
/// AVX-512 builds of the element-wise codec loops (16 floats per
/// iteration; requires F+BW+DQ+VL, which cpu_best() checks as a unit).
/// Compiled with the -mavx512* flags and -ffp-contract=off so no
/// mul/add pair can fuse into an FMA — see kernels_avx2.cpp for the
/// full byte-identity argument; the same reasoning applies lane-wise
/// here since every conversion and arithmetic op is IEEE-exact.
///
/// The Lorenzo passes are gather/scatter-bound, not lane-bound: four
/// staggered rows already hide the dependent-chain latency and wider
/// registers would only add ramp overhead, so this table forwards them
/// to the AVX2 implementations.

#include "compress/kernels_dispatch.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "common/bitstream.hpp"
#include "compress/gaussian_kernel.hpp"

namespace dlcomp::kernels::detail {

namespace {

inline __m512i zigzag16(__m512i c) noexcept {
  return _mm512_xor_si512(_mm512_slli_epi32(c, 1), _mm512_srai_epi32(c, 31));
}

/// t + copysign(0.5, t) on 8 lanes.
inline __m512d bias_half_away(__m512d t) noexcept {
  const __m512d sign = _mm512_set1_pd(-0.0);
  const __m512d half = _mm512_set1_pd(0.5);
  return _mm512_add_pd(t, _mm512_or_pd(_mm512_and_pd(t, sign), half));
}

/// round(in[i] * inv) for 16 range-checked floats.
inline __m512i quantize16(__m512 vf, __m512d vinv) noexcept {
  const __m512d lo = bias_half_away(_mm512_mul_pd(
      _mm512_cvtps_pd(_mm512_castps512_ps256(vf)), vinv));
  const __m512d hi = bias_half_away(_mm512_mul_pd(
      _mm512_cvtps_pd(_mm512_extractf32x8_ps(vf, 1)), vinv));
  return _mm512_inserti32x8(
      _mm512_castsi256_si512(_mm512_cvttpd_epi32(lo)),
      _mm512_cvttpd_epi32(hi), 1);
}

/// float(c[i] * step) for 16 int32 codes.
inline __m512 dequantize16(__m512i c, __m512d vstep) noexcept {
  const __m256 lo = _mm512_cvtpd_ps(_mm512_mul_pd(
      _mm512_cvtepi32_pd(_mm512_castsi512_si256(c)), vstep));
  const __m256 hi = _mm512_cvtpd_ps(_mm512_mul_pd(
      _mm512_cvtepi32_pd(_mm512_extracti32x8_epi32(c, 1)), vstep));
  return _mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1);
}

/// min/max sweep plus an unordered-compare NaN mask, 16 lanes at a time;
/// see avx2_codes_in_range for why the lane order cannot change the
/// decision.
bool avx512_codes_in_range(const float* in, std::size_t n, double inv) {
  float lo = in[0];
  float hi = in[0];
  std::size_t i = 0;
  __mmask16 unordered = 0;
  if (n >= 16) {
    __m512 vlo = _mm512_loadu_ps(in);
    __m512 vhi = vlo;
    unordered = _mm512_cmp_ps_mask(vlo, vlo, _CMP_UNORD_Q);
    for (i = 16; i + 16 <= n; i += 16) {
      const __m512 v = _mm512_loadu_ps(in + i);
      vlo = _mm512_min_ps(vlo, v);
      vhi = _mm512_max_ps(vhi, v);
      unordered |= _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
    }
    alignas(64) float lanes_lo[16];
    alignas(64) float lanes_hi[16];
    _mm512_store_ps(lanes_lo, vlo);
    _mm512_store_ps(lanes_hi, vhi);
    lo = lanes_lo[0];
    hi = lanes_hi[0];
    for (int l = 1; l < 16; ++l) {
      lo = std::min(lo, lanes_lo[l]);
      hi = std::max(hi, lanes_hi[l]);
    }
  }
  bool nan = unordered != 0;
  for (; i < n; ++i) {
    const float v = in[i];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    nan |= v != v;
  }
  return !nan && extrema_fit_codes(lo, hi, inv);
}

void avx512_quantize_symbols(const float* in, std::size_t n, double inv,
                             std::uint32_t* sym) {
  const __m512d vinv = _mm512_set1_pd(inv);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i codes = quantize16(_mm512_loadu_ps(in + i), vinv);
    _mm512_storeu_si512(sym + i, zigzag16(codes));
  }
  for (; i < n; ++i) {
    sym[i] = zigzag_encode32(
        round_code_checked(static_cast<double>(in[i]) * inv));
  }
}

void avx512_quantize_codes(const float* in, std::size_t n, double inv,
                           std::int32_t* out) {
  const __m512d vinv = _mm512_set1_pd(inv);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_si512(out + i, quantize16(_mm512_loadu_ps(in + i), vinv));
  }
  for (; i < n; ++i) {
    out[i] = round_code_checked(static_cast<double>(in[i]) * inv);
  }
}

std::uint32_t avx512_max_zigzag(const std::int32_t* codes, std::size_t n) {
  __m512i vmax = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i c = _mm512_loadu_si512(codes + i);
    vmax = _mm512_max_epu32(vmax, zigzag16(c));
  }
  std::uint32_t max_symbol = _mm512_reduce_max_epu32(vmax);
  for (; i < n; ++i) {
    max_symbol = std::max(max_symbol, zigzag_encode32(codes[i]));
  }
  return max_symbol;
}

void avx512_zigzag(const std::int32_t* codes, std::size_t n,
                   std::uint32_t* sym) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_si512(sym + i, zigzag16(_mm512_loadu_si512(codes + i)));
  }
  for (; i < n; ++i) sym[i] = zigzag_encode32(codes[i]);
}

void avx512_dequantize_codes(const std::int32_t* in, std::size_t n,
                             double step, float* out) {
  const __m512d vstep = _mm512_set1_pd(step);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i,
                     dequantize16(_mm512_loadu_si512(in + i), vstep));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(static_cast<double>(in[i]) * step);
  }
}

void avx512_dequantize_symbols(const std::uint32_t* in, std::size_t n,
                               double step, float* out) {
  const __m512d vstep = _mm512_set1_pd(step);
  const __m512i vone = _mm512_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i s = _mm512_loadu_si512(in + i);
    // un-zigzag: (s >> 1) ^ -(s & 1)
    const __m512i c = _mm512_xor_si512(
        _mm512_srli_epi32(s, 1),
        _mm512_sub_epi32(_mm512_setzero_si512(), _mm512_and_si512(s, vone)));
    _mm512_storeu_ps(out + i, dequantize16(c, vstep));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(
        static_cast<double>(zigzag_decode32(in[i])) * step);
  }
}

void avx512_lorenzo_encode(const float* in, std::size_t n, std::size_t dim,
                           double step, float* rc, std::uint32_t* sym) {
  const KernelOps* o = avx2_ops();
  (o != nullptr ? o->lorenzo_encode
                : scalar_ops().lorenzo_encode)(in, n, dim, step, rc, sym);
}

void avx512_lorenzo_decode(const std::uint32_t* sym, std::size_t n,
                           std::size_t dim, double step, float* out) {
  const KernelOps* o = avx2_ops();
  (o != nullptr ? o->lorenzo_decode
                : scalar_ops().lorenzo_decode)(sym, n, dim, step, out);
}

}  // namespace

const KernelOps* avx512_ops() noexcept {
  static constexpr KernelOps table = {
      &avx512_codes_in_range,
      &avx512_quantize_symbols, &avx512_quantize_codes,
      &avx512_max_zigzag,       &avx512_zigzag,
      &avx512_dequantize_codes, &avx512_dequantize_symbols,
      &avx512_lorenzo_encode,   &avx512_lorenzo_decode,
      &normal_candidates_loop,
  };
  return &table;
}

}  // namespace dlcomp::kernels::detail

#else  // missing one of F/BW/DQ/VL

namespace dlcomp::kernels::detail {
const KernelOps* avx512_ops() noexcept { return nullptr; }
}  // namespace dlcomp::kernels::detail

#endif
