#include "compress/quantizer.hpp"

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "compress/kernels.hpp"

namespace dlcomp {

namespace {

template <typename T>
std::size_t count_unique_rows(std::span<const T> values, std::size_t dim) {
  DLCOMP_CHECK(dim > 0);
  const std::size_t rows = values.size() / dim;
  return detail::count_unique_rows_bytes(values.data(), dim * sizeof(T), rows,
                                         &detail::hash_row_words);
}

}  // namespace

namespace detail {

std::uint64_t hash_row_words(const void* data, std::size_t bytes) noexcept {
  // Multiply-xor per 8-byte word (a short tail is zero-extended), then
  // a full avalanche so the low bits that pick a slot depend on every
  // input bit. Collisions only cost a memcmp; counts stay exact.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ULL ^ bytes;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  if (i < bytes) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, bytes - i);
    h = (h ^ word) * kMul;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

std::size_t find_distinct_rows(const void* data, std::size_t row_bytes,
                               std::size_t rows, RowHashFn hash,
                               std::vector<DistinctRowSlot>& table,
                               std::span<std::uint32_t> map) {
  DLCOMP_CHECK(rows < UINT32_MAX);
  DLCOMP_CHECK(map.empty() || map.size() == rows);
  const auto* base = static_cast<const unsigned char*>(data);
  // One flat open-addressing table (linear probing, load <= 0.5): the low
  // hash bits pick the slot, the high half is kept to skip most
  // mismatches. A hash hit alone is not equality: verify bytes, otherwise
  // colliding rows would merge silently.
  std::size_t capacity = 16;
  while (capacity < rows * 2) capacity *= 2;
  const std::size_t mask = capacity - 1;
  table.assign(capacity, DistinctRowSlot{});
  std::size_t distinct = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const unsigned char* row = base + r * row_bytes;
    const std::uint64_t h = hash(row, row_bytes);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t at = static_cast<std::size_t>(h) & mask;;
         at = (at + 1) & mask) {
      DistinctRowSlot& slot = table[at];
      if (slot.row == UINT32_MAX) {
        slot = {tag, static_cast<std::uint32_t>(r)};
        if (!map.empty()) map[r] = static_cast<std::uint32_t>(distinct);
        ++distinct;
        break;
      }
      if (slot.hash == tag &&
          std::memcmp(row, base + std::size_t{slot.row} * row_bytes,
                      row_bytes) == 0) {
        if (!map.empty()) map[r] = map[slot.row];
        break;
      }
    }
  }
  return distinct;
}

std::size_t count_unique_rows_bytes(const void* data, std::size_t row_bytes,
                                    std::size_t rows, RowHashFn hash) {
  std::vector<DistinctRowSlot> table;
  return find_distinct_rows(data, row_bytes, rows, hash, table, {});
}

}  // namespace detail

void quantize(std::span<const float> input, double eb,
              std::span<std::int32_t> codes) {
  kernels::quantize_to_codes(input, eb, codes);
}

void dequantize(std::span<const std::int32_t> codes, double eb,
                std::span<float> output) {
  kernels::dequantize_codes(codes, eb, output);
}

std::vector<std::int32_t> quantize(std::span<const float> input, double eb) {
  std::vector<std::int32_t> codes(input.size());
  quantize(input, eb, codes);
  return codes;
}

std::size_t count_unique_vectors(std::span<const std::int32_t> codes,
                                 std::size_t dim) {
  return count_unique_rows(codes, dim);
}

std::size_t count_unique_vectors(std::span<const std::uint32_t> symbols,
                                 std::size_t dim) {
  return count_unique_rows(symbols, dim);
}

std::size_t count_unique_vectors(std::span<const float> values,
                                 std::size_t dim) {
  return count_unique_rows(values, dim);
}

}  // namespace dlcomp
