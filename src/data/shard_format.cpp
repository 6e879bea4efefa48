#include "data/shard_format.hpp"

#include <cstring>
#include <string>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace dlcomp {

namespace {

void append_shard_section(std::vector<std::byte>& out, ShardSection type,
                          std::span<const std::byte> payload) {
  append_pod(out, static_cast<std::uint8_t>(type));
  for (int i = 0; i < 3; ++i) append_pod(out, std::uint8_t{0});
  append_pod(out, crc32(payload));
  append_pod(out, static_cast<std::uint64_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

/// Reinterprets a CRC-verified payload as an element span, checking
/// alignment and size (both hold by construction; corrupt streams that
/// survive the CRC gauntlet still cannot cause unaligned loads).
template <typename T>
std::span<const T> payload_span(std::span<const std::byte> payload,
                                std::size_t expected_elems) {
  if (payload.size() != expected_elems * sizeof(T)) {
    throw FormatError("shard section payload is " +
                      std::to_string(payload.size()) + " bytes, expected " +
                      std::to_string(expected_elems * sizeof(T)));
  }
  if (reinterpret_cast<std::uintptr_t>(payload.data()) % alignof(T) != 0) {
    throw FormatError("shard section payload is misaligned");
  }
  return {reinterpret_cast<const T*>(payload.data()), expected_elems};
}

}  // namespace

ShardHeader parse_shard_header(ByteReader& reader) {
  const auto magic = reader.read<std::uint32_t>();
  if (magic != kShardMagic) {
    throw FormatError("not a .dlshard file (bad magic)");
  }
  const auto flags = reader.read<std::uint8_t>();
  const std::uint8_t version = flags & 0x0Fu;
  if (version != kShardVersion) {
    throw FormatError("unsupported shard version " + std::to_string(version) +
                      " (expected " + std::to_string(kShardVersion) + ")");
  }
  (void)reader.read<std::uint8_t>();  // reserved
  ShardHeader header;
  header.num_dense = reader.read<std::uint16_t>();
  header.num_cat = reader.read<std::uint16_t>();
  (void)reader.read<std::uint16_t>();  // reserved
  header.sample_count = reader.read<std::uint32_t>();
  header.section_count = reader.read<std::uint32_t>();
  (void)reader.read<std::uint32_t>();  // reserved
  return header;
}

void encode_shard(const ShardContent& content, std::vector<std::byte>& out) {
  const std::size_t n = content.sample_count();
  DLCOMP_CHECK(content.dense.size() == n * content.num_dense);
  DLCOMP_CHECK(content.categorical.size() == n * content.num_cat);

  append_pod(out, kShardMagic);
  append_pod(out, std::uint8_t{kShardVersion});  // flags: version nibble
  append_pod(out, std::uint8_t{0});
  append_pod(out, content.num_dense);
  append_pod(out, content.num_cat);
  append_pod(out, std::uint16_t{0});
  append_pod(out, static_cast<std::uint32_t>(n));
  append_pod(out, std::uint32_t{3});  // section count
  append_pod(out, std::uint32_t{0});

  const auto bytes_of = [](const auto& v) {
    return std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(v.data()),
        v.size() * sizeof(v[0]));
  };
  append_shard_section(out, ShardSection::kLabels, bytes_of(content.labels));
  append_shard_section(out, ShardSection::kDense, bytes_of(content.dense));
  append_shard_section(out, ShardSection::kCategorical,
                       bytes_of(content.categorical));
}

ShardView decode_shard(std::span<const std::byte> data) {
  ByteReader reader(data);
  ShardView view;
  view.header = parse_shard_header(reader);

  bool seen[4] = {false, false, false, false};
  for (std::uint32_t s = 0; s < view.header.section_count; ++s) {
    const auto type = reader.read<std::uint8_t>();
    reader.skip(3);
    const auto stored_crc = reader.read<std::uint32_t>();
    const auto payload_bytes = reader.read<std::uint64_t>();
    if (payload_bytes > reader.remaining()) {
      throw FormatError("shard truncated: section claims " +
                        std::to_string(payload_bytes) + " bytes, " +
                        std::to_string(reader.remaining()) + " remain");
    }
    const std::span<const std::byte> payload = reader.take(payload_bytes);
    if (crc32(payload) != stored_crc) {
      throw FormatError("shard section " + std::to_string(type) +
                        " CRC mismatch");
    }
    const std::size_t n = view.header.sample_count;
    switch (static_cast<ShardSection>(type)) {
      case ShardSection::kLabels:
        view.labels = payload_span<float>(payload, n);
        break;
      case ShardSection::kDense:
        view.dense = payload_span<float>(payload, n * view.header.num_dense);
        break;
      case ShardSection::kCategorical:
        view.categorical =
            payload_span<std::uint32_t>(payload, n * view.header.num_cat);
        break;
      default:
        // Unknown sections are skippable (forward compatibility): the
        // payload span was already consumed above.
        continue;
    }
    if (seen[type & 3]) {
      throw FormatError("shard has duplicate section " + std::to_string(type));
    }
    seen[type & 3] = true;
  }
  if (!seen[static_cast<int>(ShardSection::kLabels)] ||
      !seen[static_cast<int>(ShardSection::kDense)] ||
      !seen[static_cast<int>(ShardSection::kCategorical)]) {
    throw FormatError("shard is missing a required section");
  }
  return view;
}

}  // namespace dlcomp
