#pragma once

/// \file shard_format.hpp
/// The `.dlshard` dataset shard: a versioned, CRC-checked binary
/// container for preprocessed click-log samples, built on the same
/// byte_io/crc32 primitives as the `.dlck` checkpoint container. Layout
/// (little endian):
///
///   file header (24 bytes):
///     u32 magic 'DLSH' | u8 flags (version in the low nibble) |
///     u8 reserved | u16 num_dense | u16 num_cat | u16 reserved |
///     u32 sample_count | u32 section_count | u32 reserved
///   then `section_count` sections back-to-back, each with a 16-byte
///   header:
///     u8 type | u8 pad[3] | u32 crc32(payload) | u64 payload_bytes |
///     payload
///
///   section payloads (N = sample_count):
///     labels: N f32 in {0, 1}
///     dense:  N * num_dense f32, sample-major (one batch slice is one
///             contiguous block)
///     cats:   num_cat * N u32 full-width hashed ids, *table-major* (one
///             table's batch slice is one contiguous block; the reader
///             folds ids into the table's index space)
///
/// Every offset in the file is 4-byte aligned (header 24, section header
/// 16, payloads multiples of 4), so the mmap'ed shard the reader
/// (shard_reader.hpp) loads is viewed as float/u32 spans without
/// copying. `decode_shard` CRC-checks every payload before returning
/// views; a mismatch throws FormatError, exactly like the checkpoint
/// reader. Shards are written by the converter (shard_converter.hpp).
///
/// See DESIGN.md "Dataset shards" for the rationale.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/byte_io.hpp"

namespace dlcomp {

inline constexpr std::uint32_t kShardMagic = 0x48534C44u;  // "DLSH"
inline constexpr std::uint8_t kShardVersion = 1;

/// Section types inside a shard.
enum class ShardSection : std::uint8_t {
  kLabels = 1,
  kDense = 2,
  kCategorical = 3,
};

struct ShardHeader {
  std::uint16_t num_dense = 0;
  std::uint16_t num_cat = 0;
  std::uint32_t sample_count = 0;
  std::uint32_t section_count = 0;
};

/// In-memory shard contents, the unit the converter builds and encodes.
struct ShardContent {
  std::uint16_t num_dense = 0;
  std::uint16_t num_cat = 0;
  std::vector<float> labels;                ///< N
  std::vector<float> dense;                 ///< N * num_dense, sample-major
  std::vector<std::uint32_t> categorical;   ///< num_cat * N, table-major

  [[nodiscard]] std::size_t sample_count() const noexcept {
    return labels.size();
  }
};

/// Zero-copy view of a decoded shard; spans point into the caller's
/// buffer, which must outlive the view.
struct ShardView {
  ShardHeader header;
  std::span<const float> labels;
  std::span<const float> dense;
  std::span<const std::uint32_t> categorical;

  [[nodiscard]] std::size_t sample_count() const noexcept {
    return header.sample_count;
  }
  /// One table's ids for samples [first, first+count).
  [[nodiscard]] std::span<const std::uint32_t> table_ids(
      std::size_t table, std::size_t first, std::size_t count) const noexcept {
    return categorical.subspan(table * header.sample_count + first, count);
  }
};

/// Serializes `content` as a complete `.dlshard` byte image, appended to
/// `out`. The converter calls this once per shard; tests use it to craft
/// corrupt shards.
void encode_shard(const ShardContent& content, std::vector<std::byte>& out);

/// Parses and validates a complete shard image: magic, version, section
/// inventory and every section's CRC. Throws FormatError on any
/// malformation. Returned spans view into `data`.
ShardView decode_shard(std::span<const std::byte> data);

/// Parses only the fixed file header (magic + version checked). Used by
/// the reader's cheap open-time scan.
ShardHeader parse_shard_header(ByteReader& reader);

}  // namespace dlcomp
