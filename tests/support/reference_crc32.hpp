#pragma once

/// \file reference_crc32.hpp
/// The byte-at-a-time CRC-32 update (reflected polynomial 0xEDB88320),
/// kept as the oracle the slicing-by-8 crc32_update (common/crc32.hpp) is
/// differentially tested against. Test-only and header-only.

#include <cstddef>
#include <cstdint>
#include <span>

namespace dlcomp::reference {

inline std::uint32_t crc32_update(std::uint32_t state,
                                  std::span<const std::byte> data) {
  for (const std::byte b : data) {
    state ^= static_cast<std::uint8_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
    }
  }
  return state;
}

}  // namespace dlcomp::reference
