#pragma once

/// \file reference_kernels.hpp
/// The pre-overhaul scalar quantization and Lorenzo kernels, preserved
/// verbatim as the ground truth the fused hot-path kernels (kernels.hpp)
/// are differentially tested against: on any input, the fused kernels
/// must produce byte-identical codes, symbols and reconstructions.
///
/// These are reference implementations, not production paths — per-call
/// allocation and per-element branching are intentional (that is exactly
/// what the fused kernels removed). Test-only: they are compiled into
/// test_codec_hotpath alone, never into dlcomp_core.

#include <cstdint>
#include <span>
#include <vector>

namespace dlcomp::reference {

/// Per-element double-precision quantization with an in-loop range check
/// (the original `quantize`).
void quantize(std::span<const float> input, double eb,
              std::span<std::int32_t> codes);

/// Original dequantization: x' = code * 2 * eb in double, narrowed.
void dequantize(std::span<const std::int32_t> codes, double eb,
                std::span<float> output);

/// Original 2-D Lorenzo predictor with per-element boundary lambdas.
/// Quantizes residuals against the running reconstruction.
void lorenzo_encode(std::span<const float> input, std::size_t dim, double eb,
                    std::span<std::int32_t> codes,
                    std::span<float> reconstructed);

/// Original inverse Lorenzo transform.
void lorenzo_decode(std::span<const std::int32_t> codes, std::size_t dim,
                    double eb, std::span<float> output);

}  // namespace dlcomp::reference
