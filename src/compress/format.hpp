#pragma once

/// \file format.hpp
/// Self-describing stream header shared by every codec. Layout (little
/// endian, 32 bytes):
///   u32 magic 'DLCP' | u8 codec | u8 flags | u16 vector_dim |
///   u64 element_count | f64 effective_error_bound | u64 payload_bytes
/// The payload follows immediately. `payload_bytes` lets chunked buffers
/// carry several streams back-to-back.
///
/// The flags byte is split: the low nibble holds per-stream flag bits
/// (kFlagStoredRaw, ...), the high nibble holds the format version.
/// append_header stamps kStreamVersion automatically; parse_header
/// rejects any other version, so layout changes can never be misread as
/// garbage data.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/byte_io.hpp"

namespace dlcomp {

/// Codec identifiers baked into streams.
enum class CodecId : std::uint8_t {
  kGenericLz = 1,
  kDeflateLike = 2,
  kCuszLike = 3,
  kFzGpuLike = 4,
  kFp16 = 5,
  kFp8 = 6,
  kHuffman = 7,
  kVectorLz = 8,
  kHybrid = 9,
  kZfpLike = 10,
};

struct StreamHeader {
  static constexpr std::uint32_t kMagic = 0x50434C44u;  // "DLCP"
  static constexpr std::size_t kBytes = 32;

  CodecId codec{};
  std::uint8_t flags = 0;
  std::uint16_t vector_dim = 0;
  std::uint64_t element_count = 0;
  double effective_error_bound = 0.0;
  std::uint64_t payload_bytes = 0;
};

/// `vector_dim` narrowed to the u16 header field; throws Error when it
/// does not fit (a truncated dim would decode with the wrong row shape).
std::uint16_t header_vector_dim(std::size_t vector_dim);

/// Appends a header to `out`; returns the offset of the payload_bytes
/// field so it can be patched after the payload is written.
std::size_t append_header(std::vector<std::byte>& out, const StreamHeader& h);

/// Patches payload_bytes in a previously appended header.
void patch_payload_bytes(std::vector<std::byte>& out, std::size_t field_offset,
                         std::uint64_t payload_bytes);

/// Patches the flags byte of a previously appended header, addressed by
/// the same payload_bytes field offset append_header returned.
void patch_flags(std::vector<std::byte>& out, std::size_t field_offset,
                 std::uint8_t flags);

/// Flag bit: payload is stored raw (no compression); used by the lossless
/// baselines' stored-block fallback.
inline constexpr std::uint8_t kFlagStoredRaw = 0x01;

/// Low-nibble mask for flag bits; the high nibble is the format version.
inline constexpr std::uint8_t kFlagBitsMask = 0x0F;

/// Current stream format version, stored in the flags high nibble.
inline constexpr std::uint8_t kStreamVersion = 1;

/// Parses and validates a header at the start of `stream`; on return
/// `payload` views exactly payload_bytes bytes after the header.
StreamHeader parse_header(std::span<const std::byte> stream,
                          std::span<const std::byte>& payload);

}  // namespace dlcomp
