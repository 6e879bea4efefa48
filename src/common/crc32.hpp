#pragma once

/// \file crc32.hpp
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte spans.
/// The checkpoint container stamps every section payload with a CRC so
/// at-rest corruption is caught before any bytes reach a codec or a
/// weight buffer. The update runs slicing-by-8: eight table lookups fold
/// eight input bytes per step, giving the same value as the byte-at-a-time
/// loop (kept as the test oracle in tests/support/reference_crc32.hpp)
/// several times faster.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace dlcomp {

namespace detail {

/// kCrc32Tables[0] is the classic byte table; kCrc32Tables[k][i] is the
/// CRC state after byte i is followed by k zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() noexcept {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr auto kCrc32Tables = make_crc32_tables();

}  // namespace detail

/// Incremental update: feed `state` through successive chunks, starting
/// from crc32_init() and finishing with crc32_final().
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }

[[nodiscard]] inline std::uint32_t crc32_update(
    std::uint32_t state, std::span<const std::byte> data) noexcept {
  static_assert(std::endian::native == std::endian::little,
                "slicing-by-8 reads input words little endian");
  const auto& t = detail::kCrc32Tables;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= state;
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC of a whole buffer.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace dlcomp
