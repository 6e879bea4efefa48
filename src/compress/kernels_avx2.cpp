/// \file kernels_avx2.cpp
/// The AVX2 tier's kernel table. Compiled with -mavx2, -fno-math-errno and
/// -ffp-contract=off (see CMakeLists.txt): contraction must stay off so no
/// mul/add pair can fuse into an FMA, which would change double rounding
/// and break stream byte-identity with the scalar tier. Dispatch happens
/// at runtime (kernels.cpp); this TU is always compiled where the
/// toolchain supports the flags, and the code only executes after cpuid
/// confirms AVX2.
///
/// The element-wise loops (elementwise_kernel.hpp) and the Box-Muller
/// transform (gaussian_kernel.hpp) are the shared sources, vectorized by
/// gcc to 32-byte vectors; CI's vectorization report check pins that
/// width. In a paired microbench (64 Ki floats in cache, median of 401
/// calls, one pinned core of a 4-vCPU AVX-512 Xeon, gcc 12) each shared
/// loop ran within 5% of the intrinsics it replaced, and the integer-key
/// `codes_in_range` beat the float min/max sweep (9.3 against 11.0 us).
///
/// Only the staggered Lorenzo pair stays hand-written: on that host its
/// encode of 64 Ki floats takes 450-475 us at dims 16, 32 and 64, against
/// 740-755 us for the scalar tier's row pairs: four staggered rows
/// overlap their serial west-dependency chains, an interleaving the
/// auto-vectorizer does not find.
/// Identity notes:
///  - round-half-away-from-zero is `trunc(t + copysign(0.5, t))`, the
///    form round_code_checked uses; it differs from round_code's
///    `t >= 0 ? 0.5 : -0.5` only at t == -0.0, where both give code 0;
///  - `_mm256_cvttpd_epi32` truncates toward zero exactly like the
///    scalar double→int32 cast, and the encoder falls back to the shared
///    clamped round_code whenever any lane leaves |t| < 2^31;
///  - float stores go through `_mm256_cvtpd_ps`, the same correctly-
///    rounded double→float narrowing as the scalar casts.

#include "compress/kernels_dispatch.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

#include "compress/elementwise_kernel.hpp"
#include "compress/gaussian_kernel.hpp"

namespace dlcomp::kernels::detail {

namespace {

/// zigzag on 4 lanes: (c << 1) ^ (c >> 31).
inline __m128i zigzag4(__m128i c) noexcept {
  return _mm_xor_si128(_mm_slli_epi32(c, 1), _mm_srai_epi32(c, 31));
}

/// t + copysign(0.5, t) on 4 lanes.
inline __m256d bias_half_away(__m256d t) noexcept {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  return _mm256_add_pd(t, _mm256_or_pd(_mm256_and_pd(t, sign), half));
}

// ---------------------------------------------------------------------
// Staggered Lorenzo: four consecutive rows advance together, row r+k one
// column behind row r+k-1, so every element still reads only finalized
// west/north/northwest neighbors (byte-identity is by construction: the
// per-element arithmetic is untouched, only the evaluation order across
// independent elements changes). Lane k's flat index at master column m
// is r*dim + m + k*(dim-1); the scalar ramp-in/ramp-out triangles cover
// the columns the stagger cannot.

/// Scalar per-element emitters, shared by ramps and leftover rows —
/// textually identical arithmetic to the kernels.cpp loops.
struct EncodeCtx {
  const float* in;
  float* rc;
  std::uint32_t* sym;
  std::size_t dim;
  double step;

  inline void emit(std::size_t idx, double pred) const {
    const double residual = static_cast<double>(in[idx]) - pred;
    const std::int32_t code = round_code(residual / step);
    sym[idx] = zigzag32(code);
    rc[idx] = static_cast<float>(pred + static_cast<double>(code) * step);
  }
  inline void emit_mid(std::size_t base, std::size_t c) const {
    const double pred = static_cast<double>(rc[base + c - 1]) +
                        static_cast<double>(rc[base + c - dim]) -
                        static_cast<double>(rc[base + c - dim - 1]);
    emit(base + c, pred);
  }
  inline void emit_row_start(std::size_t base) const {
    emit(base, (0.0 + static_cast<double>(rc[base - dim])) - 0.0);
  }
};

void avx2_lorenzo_encode(const float* in, std::size_t n, std::size_t dim,
                         double step, float* rc, std::uint32_t* sym) {
  // Gathers index with int32; tiny rows have no steady-state region.
  if (dim < 8 || n <= 4 * dim ||
      n > static_cast<std::size_t>(kInt32Max)) {
    scalar_ops().lorenzo_encode(in, n, dim, step, rc, sym);
    return;
  }
  const EncodeCtx ctx{in, rc, sym, dim, step};

  // ---- First row: west-only prediction (serial chain; scalar).
  ctx.emit(0, 0.0);
  for (std::size_t c = 1; c < dim; ++c) {
    ctx.emit(c, (static_cast<double>(rc[c - 1]) + 0.0) - 0.0);
  }

  const std::size_t rows = (n + dim - 1) / dim;
  const std::size_t full_rows = n / dim;
  const __m256d vstep = _mm256_set1_pd(step);
  const __m256d vsign = _mm256_set1_pd(-0.0);
  const __m256d v2p31 = _mm256_set1_pd(2147483648.0);
  const __m128i vone = _mm_set1_epi32(1);
  const __m128i vdim = _mm_set1_epi32(static_cast<std::int32_t>(dim));

  std::size_t r = 1;
  for (; r + 3 < full_rows; r += 4) {
    // Ramp-in: lane k needs columns 0..3-k before the stagger aligns.
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t base = (r + k) * dim;
      ctx.emit_row_start(base);
      for (std::size_t c = 1; c + k <= 3; ++c) ctx.emit_mid(base, c);
    }

    // Steady state: master column m in [4, dim), lane k at column m - k.
    __m128i idx = _mm_add_epi32(
        _mm_set1_epi32(static_cast<std::int32_t>(r * dim + 4)),
        _mm_mullo_epi32(_mm_set_epi32(3, 2, 1, 0),
                        _mm_set1_epi32(static_cast<std::int32_t>(dim) - 1)));
    __m256d west =
        _mm256_cvtps_pd(_mm_i32gather_ps(rc, _mm_sub_epi32(idx, vone), 4));
    __m256d northwest = _mm256_cvtps_pd(_mm_i32gather_ps(
        rc, _mm_sub_epi32(idx, _mm_add_epi32(vdim, vone)), 4));
    for (std::size_t m = 4; m < dim; ++m) {
      const __m256d din = _mm256_cvtps_pd(_mm_i32gather_ps(in, idx, 4));
      const __m256d north = _mm256_cvtps_pd(
          _mm_i32gather_ps(rc, _mm_sub_epi32(idx, vdim), 4));
      const __m256d pred =
          _mm256_sub_pd(_mm256_add_pd(west, north), northwest);
      const __m256d t = _mm256_div_pd(_mm256_sub_pd(din, pred), vstep);
      const __m256d biased = bias_half_away(t);
      __m128i code;
      if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_andnot_pd(vsign, biased),
                                           v2p31, _CMP_LT_OQ)) == 0xF)
          [[likely]] {
        code = _mm256_cvttpd_epi32(biased);
      } else {
        // Garbage residual (NaN/huge): the shared clamped rounding, per
        // lane, keeps results identical to the scalar path.
        alignas(32) double tt[4];
        _mm256_store_pd(tt, t);
        alignas(16) std::int32_t cc[4];
        for (int k = 0; k < 4; ++k) cc[k] = round_code(tt[k]);
        code = _mm_load_si128(reinterpret_cast<const __m128i*>(cc));
      }
      const __m256d res = _mm256_add_pd(
          pred, _mm256_mul_pd(_mm256_cvtepi32_pd(code), vstep));
      const __m128 resf = _mm256_cvtpd_ps(res);

      alignas(16) std::int32_t at[4];
      alignas(16) float rv[4];
      alignas(16) std::uint32_t zv[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(at), idx);
      _mm_store_ps(rv, resf);
      _mm_store_si128(reinterpret_cast<__m128i*>(zv), zigzag4(code));
      for (int k = 0; k < 4; ++k) {
        rc[at[k]] = rv[k];
        sym[at[k]] = zv[k];
      }

      west = _mm256_cvtps_pd(resf);
      northwest = north;
      idx = _mm_add_epi32(idx, vone);
    }

    // Ramp-out: lane k still owes its last k columns.
    for (std::size_t k = 1; k < 4; ++k) {
      const std::size_t base = (r + k) * dim;
      for (std::size_t c = dim - k; c < dim; ++c) ctx.emit_mid(base, c);
    }
  }

  // Leftover rows (quad remainder, short tail): one at a time.
  for (; r < rows; ++r) {
    const std::size_t base = r * dim;
    const std::size_t len = lane_min(dim, n - base);
    ctx.emit_row_start(base);
    for (std::size_t c = 1; c < len; ++c) ctx.emit_mid(base, c);
  }
}

struct DecodeCtx {
  const std::uint32_t* sym;
  float* out;
  std::size_t dim;
  double step;

  inline void value(std::size_t idx, double pred) const {
    out[idx] = static_cast<float>(
        pred + static_cast<double>(unzigzag32(sym[idx])) * step);
  }
  inline void value_mid(std::size_t base, std::size_t c) const {
    const double pred = static_cast<double>(out[base + c - 1]) +
                        static_cast<double>(out[base + c - dim]) -
                        static_cast<double>(out[base + c - dim - 1]);
    value(base + c, pred);
  }
  inline void value_row_start(std::size_t base) const {
    value(base, (0.0 + static_cast<double>(out[base - dim])) - 0.0);
  }
};

void avx2_lorenzo_decode(const std::uint32_t* sym, std::size_t n,
                         std::size_t dim, double step, float* out) {
  if (dim < 8 || n <= 4 * dim ||
      n > static_cast<std::size_t>(kInt32Max)) {
    scalar_ops().lorenzo_decode(sym, n, dim, step, out);
    return;
  }
  const DecodeCtx ctx{sym, out, dim, step};

  ctx.value(0, 0.0);
  for (std::size_t c = 1; c < dim; ++c) {
    ctx.value(c, (static_cast<double>(out[c - 1]) + 0.0) - 0.0);
  }

  const std::size_t rows = (n + dim - 1) / dim;
  const std::size_t full_rows = n / dim;
  const __m256d vstep = _mm256_set1_pd(step);
  const __m128i vone = _mm_set1_epi32(1);
  const __m128i vdim = _mm_set1_epi32(static_cast<std::int32_t>(dim));

  std::size_t r = 1;
  for (; r + 3 < full_rows; r += 4) {
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t base = (r + k) * dim;
      ctx.value_row_start(base);
      for (std::size_t c = 1; c + k <= 3; ++c) ctx.value_mid(base, c);
    }

    __m128i idx = _mm_add_epi32(
        _mm_set1_epi32(static_cast<std::int32_t>(r * dim + 4)),
        _mm_mullo_epi32(_mm_set_epi32(3, 2, 1, 0),
                        _mm_set1_epi32(static_cast<std::int32_t>(dim) - 1)));
    __m256d west =
        _mm256_cvtps_pd(_mm_i32gather_ps(out, _mm_sub_epi32(idx, vone), 4));
    __m256d northwest = _mm256_cvtps_pd(_mm_i32gather_ps(
        out, _mm_sub_epi32(idx, _mm_add_epi32(vdim, vone)), 4));
    for (std::size_t m = 4; m < dim; ++m) {
      const __m128i s = _mm_i32gather_epi32(
          reinterpret_cast<const int*>(sym), idx, 4);
      const __m128i code = _mm_xor_si128(
          _mm_srli_epi32(s, 1),
          _mm_sub_epi32(_mm_setzero_si128(),
                        _mm_and_si128(s, _mm_set1_epi32(1))));
      const __m256d north = _mm256_cvtps_pd(
          _mm_i32gather_ps(out, _mm_sub_epi32(idx, vdim), 4));
      const __m256d pred =
          _mm256_sub_pd(_mm256_add_pd(west, north), northwest);
      const __m256d res = _mm256_add_pd(
          pred, _mm256_mul_pd(_mm256_cvtepi32_pd(code), vstep));
      const __m128 resf = _mm256_cvtpd_ps(res);

      alignas(16) std::int32_t at[4];
      alignas(16) float rv[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(at), idx);
      _mm_store_ps(rv, resf);
      for (int k = 0; k < 4; ++k) out[at[k]] = rv[k];

      west = _mm256_cvtps_pd(resf);
      northwest = north;
      idx = _mm_add_epi32(idx, vone);
    }

    for (std::size_t k = 1; k < 4; ++k) {
      const std::size_t base = (r + k) * dim;
      for (std::size_t c = dim - k; c < dim; ++c) ctx.value_mid(base, c);
    }
  }

  for (; r < rows; ++r) {
    const std::size_t base = r * dim;
    const std::size_t len = lane_min(dim, n - base);
    ctx.value_row_start(base);
    for (std::size_t c = 1; c < len; ++c) ctx.value_mid(base, c);
  }
}

}  // namespace

const KernelOps* avx2_ops() noexcept {
  static constexpr KernelOps table = {
      &codes_in_range_loop,
      &quantize_symbols_loop,   &quantize_codes_loop,
      &max_zigzag_loop,         &zigzag_loop,
      &dequantize_codes_loop,   &dequantize_symbols_loop,
      &avx2_lorenzo_encode,     &avx2_lorenzo_decode,
      &normal_candidates_loop,
  };
  return &table;
}

}  // namespace dlcomp::kernels::detail

#else  // !__AVX2__

namespace dlcomp::kernels::detail {
const KernelOps* avx2_ops() noexcept { return nullptr; }
}  // namespace dlcomp::kernels::detail

#endif
