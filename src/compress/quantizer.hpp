#pragma once

/// \file quantizer.hpp
/// Error-bounded linear quantization: the first stage of the paper's
/// hybrid compressor ("the quantization encoder converts floating-point
/// numbers into discrete bins"). With absolute bound eb, bins are 2*eb
/// wide, so |x - dequantize(quantize(x))| <= eb for all finite x within
/// the representable code range. The implementations live in the fused
/// kernels (kernels.hpp); this header keeps the stable public surface.

#include <cstddef>
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

/// One slot of find_distinct_rows' open-addressing table: the high half
/// of a row's hash and the row that first showed its bytes.
struct DistinctRowSlot {
  std::uint32_t hash = 0;
  std::uint32_t row = UINT32_MAX;  ///< UINT32_MAX: empty
};

/// Finds the distinct rows of a packed row-major buffer, compared
/// bitwise, in first-seen order, and returns their count. When `map` is
/// non-empty (one entry per row) map[r] is the first-seen index of row
/// r's bytes, so the k-th distinct row is the first r with map[r] == k.
/// `table` is scratch: it is refilled on every call and keeps its
/// capacity. Rows whose hashes collide are compared byte-for-byte
/// instead of being assumed equal; the hash is injectable so tests can
/// force collisions. `rows` must be below UINT32_MAX.
std::size_t find_distinct_rows(const void* data, std::size_t row_bytes,
                               std::size_t rows, RowHashFn hash,
                               std::vector<DistinctRowSlot>& table,
                               std::span<std::uint32_t> map);

/// find_distinct_rows' count alone, with a table of its own.
std::size_t count_unique_rows_bytes(const void* data, std::size_t row_bytes,
                                    std::size_t rows, RowHashFn hash);

}  // namespace detail

}  // namespace dlcomp
