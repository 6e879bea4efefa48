/// \file kernels_avx512.cpp
/// The AVX-512 tier's kernel table (requires F+BW+DQ+VL, which
/// cpu_best() checks as a unit). Compiled with the -mavx512* flags,
/// -fno-math-errno and -ffp-contract=off so no mul/add pair can fuse into
/// an FMA; see kernels_avx2.cpp for the byte-identity argument.
///
/// The element-wise loops (elementwise_kernel.hpp) and the Box-Muller
/// transform (gaussian_kernel.hpp) are the shared sources, vectorized by
/// gcc to 64-byte vectors; CI's vectorization report check pins that
/// width. In the paired microbench kernels_avx2.cpp describes, each
/// shared loop ran within 5% of the intrinsics it replaced or faster,
/// except `codes_in_range`: the float min/max sweep below, with its
/// unordered-compare NaN mask, takes 5.9 us where the shared integer-key
/// loop takes 10.0 us, so it stays.
///
/// The Lorenzo passes are gather/scatter-bound, not lane-bound: four
/// staggered rows already hide the dependent-chain latency and wider
/// registers would only add ramp overhead, so this table forwards them
/// to the AVX2 implementations.

#include "compress/kernels_dispatch.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <cstdint>

#include "compress/elementwise_kernel.hpp"
#include "compress/gaussian_kernel.hpp"

namespace dlcomp::kernels::detail {

namespace {

/// min/max sweep plus an unordered-compare NaN mask, 16 lanes at a time.
/// Lane minima of NaN-free data equal the serial minimum in value (only
/// the sign of a zero may differ, which no product can tell apart), so
/// the decision matches the shared integer-key loop.
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
      lo = lane_min(lo, lanes_lo[l]);
      hi = lane_max(hi, lanes_hi[l]);
    }
  }
  bool nan = unordered != 0;
  for (; i < n; ++i) {
    const float v = in[i];
    lo = lane_min(lo, v);
    hi = lane_max(hi, v);
    nan |= v != v;
  }
  return !nan && extrema_fit_codes(lo, hi, inv);
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
      &quantize_symbols_loop,   &quantize_codes_loop,
      &max_zigzag_loop,         &zigzag_loop,
      &dequantize_codes_loop,   &dequantize_symbols_loop,
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
