#pragma once

/// \file quantizer.hpp
/// Error-bounded linear quantization: the first stage of the paper's
/// hybrid compressor ("the quantization encoder converts floating-point
/// numbers into discrete bins"). With absolute bound eb, bins are 2*eb
/// wide, so |x - dequantize(quantize(x))| <= eb for all finite x within
/// the representable code range. The implementations live in the fused
/// kernels (kernels.hpp); this header keeps the stable public surface.

#include <cstdint>
#include <span>
#include <vector>

namespace dlcomp {

/// Quantizes each value to round(x / (2*eb)). Throws if any code exceeds
/// the int32 range (cannot happen for embedding-scale data with sane
/// bounds; the check guards against eb underflow). The range check is
/// performed once up front over the input extrema.
void quantize(std::span<const float> input, double eb,
              std::span<std::int32_t> codes);

/// Reconstructs x' = code * 2 * eb.
void dequantize(std::span<const std::int32_t> codes, double eb,
                std::span<float> output);

/// Convenience allocation form.
std::vector<std::int32_t> quantize(std::span<const float> input, double eb);

/// Counts distinct vectors of length `dim` in `codes` (row-granular).
/// Used by the Homogenization Index: quantized pattern counting.
std::size_t count_unique_vectors(std::span<const std::int32_t> codes,
                                 std::size_t dim);

/// Counts distinct vectors of zigzag symbols; equal to the count over the
/// codes they encode (zigzag is a bijection).
std::size_t count_unique_vectors(std::span<const std::uint32_t> symbols,
                                 std::size_t dim);

/// Counts distinct float vectors (original pattern counting).
std::size_t count_unique_vectors(std::span<const float> values,
                                 std::size_t dim);

namespace detail {

/// Row hash signature for count_unique_rows_bytes.
using RowHashFn = std::uint64_t (*)(const void* data, std::size_t bytes);

/// The row hash count_unique_vectors uses: 8 bytes per step, any length.
std::uint64_t hash_row_words(const void* data, std::size_t bytes) noexcept;

/// Collision-safe distinct-row count over a packed row-major buffer:
/// rows whose hashes collide are compared byte-for-byte instead of being
/// assumed equal. The hash is injectable so tests can force collisions
/// (a constant hash must still produce exact counts).
std::size_t count_unique_rows_bytes(const void* data, std::size_t row_bytes,
                                    std::size_t rows, RowHashFn hash);

}  // namespace detail

}  // namespace dlcomp
