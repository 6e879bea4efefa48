#pragma once

/// \file kernels.hpp
/// Fused single-precision hot-path kernels for the quantization / Lorenzo
/// stage of every error-bounded codec. Each kernel replaces a chain of
/// per-element passes from the original implementation:
///
///   quantize_to_symbols   = quantize + zigzag + histogram (one sweep)
///   quantize_to_codes     = quantize + running max-symbol (vector-LZ)
///   lorenzo_encode_fused  = Lorenzo predict + quantize + zigzag + histogram
///   lorenzo_decode_fused  = un-zigzag + inverse Lorenzo (no codes buffer)
///   dequantize_*          = straight-line reconstruction loops
///
/// It also dispatches normal_candidates, the vectorized Box-Muller
/// transform behind Rng::fill_normal (gaussian_kernel.hpp), which shares
/// the per-ISA tables but not the byte-identity rules below: it is held
/// to an error bound instead.
///
/// Design rules (see DESIGN.md "Codec hot path"):
///  - the int32-range check is hoisted to one up-front sweep per call, a
///    per-ISA kernel (extrema plus a NaN test), so the per-element loops
///    are branch-free and auto-vectorizable at -O3
///    (build with -DDLCOMP_VEC_REPORT=ON to get the compiler's
///    vectorization report for these files);
///  - boundary handling (first row / first column / short tail row) is
///    hoisted out of the inner loops instead of being re-tested per
///    element;
///  - per-element arithmetic stays bit-identical to the pre-overhaul
///    kernels (double products, round-half-away-from-zero), so streams are
///    byte-identical with the pre-overhaul codecs; test_codec_hotpath.cpp
///    enforces this against those kernels, kept as a test-only oracle in
///    tests/support/reference_kernels.hpp.
///
/// Rounding note: round-half-away is implemented branch-predication-free
/// as trunc(x + copysign(0.5, x)), which agrees with std::llround for
/// every value except a double lying within half an ulp *below* a
/// half-integer whose sum rounds across it — unreachable for products of
/// real data, and the differential tests run millions of random elements
/// to back that up.

#include <cstdint>
#include <span>

#include "compress/histogram.hpp"
#include "compress/simd.hpp"

namespace dlcomp::kernels {

/// ISA tier of the kernels actually dispatched: simd::requested()
/// stepped down past variants missing from this binary. Resolved on
/// first kernel call (or first query) and stable afterwards unless a
/// test forces it.
[[nodiscard]] simd::Isa dispatched_isa() noexcept;

/// Test hook: forces dispatch to `isa` for the whole process. Returns
/// false (and changes nothing) when `isa` has no compiled-in kernels or
/// exceeds what the CPU supports. Not thread-safe against in-flight
/// kernel calls; differential tests only.
bool force_isa_for_testing(simd::Isa isa) noexcept;

/// Quantizes to zigzag symbols; optionally accumulates `hist` (reset by
/// the callee) for the entropy stage. Throws on code overflow (checked
/// once up front) and on eb <= 0.
void quantize_to_symbols(std::span<const float> input, double eb,
                         std::span<std::uint32_t> symbols,
                         SymbolHistogram* hist);

/// Quantizes to signed codes; returns the largest zigzag symbol value
/// (the vector-LZ literal-width input). Same checks as above.
std::uint64_t quantize_to_codes(std::span<const float> input, double eb,
                                std::span<std::int32_t> codes);

/// Zigzag already-quantized codes into symbols (and optionally the
/// histogram): the shared-quantization path of the hybrid compressor,
/// which quantizes once and feeds both inner encoders.
void codes_to_symbols(std::span<const std::int32_t> codes,
                      std::span<std::uint32_t> symbols, SymbolHistogram* hist);

/// x' = code * 2 * eb.
void dequantize_codes(std::span<const std::int32_t> codes, double eb,
                      std::span<float> output);

/// x' = zigzag_decode(symbol) * 2 * eb.
void dequantize_symbols(std::span<const std::uint32_t> symbols, double eb,
                        std::span<float> output);

/// 2-D Lorenzo predictor over the (rows x dim) grid fused with residual
/// quantization and zigzag; emits symbols plus the running reconstruction
/// (which compression must predict from, mirroring the decoder), and
/// optionally the symbol histogram. No range check: residuals against the
/// running reconstruction are self-limiting, matching the reference.
void lorenzo_encode_fused(std::span<const float> input, std::size_t dim,
                          double eb, std::span<float> reconstructed,
                          std::span<std::uint32_t> symbols,
                          SymbolHistogram* hist);

/// Inverse: rebuilds values straight from zigzag symbols.
void lorenzo_decode_fused(std::span<const std::uint32_t> symbols,
                          std::size_t dim, double eb,
                          std::span<float> output);

/// Box-Muller candidates for the uniform pairs (u1[i], u2[i]) under the
/// dispatched tier, for Rng::fill_normal: value[i] and value[n + i]
/// approximate mean + stddev * sqrt(-2 log u1) * cos and sin (2 pi u2) as
/// libm computes them, and radius[] bounds each one's distance to the
/// libm value (gaussian_kernel.hpp). Requires u1 in (0, 1), u2 in [0, 1)
/// and value/radius twice as long as u1.
void normal_candidates(std::span<const double> u1, std::span<const double> u2,
                       double mean, double stddev, std::span<double> value,
                       std::span<double> radius);

}  // namespace dlcomp::kernels
