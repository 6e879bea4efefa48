#include "compress/format.hpp"

#include <cstring>

#include "common/error.hpp"

namespace dlcomp {

namespace {

/// Packs flag bits and the current format version into the wire byte.
std::uint8_t versioned_flags(std::uint8_t flags) noexcept {
  return static_cast<std::uint8_t>((flags & kFlagBitsMask) |
                                   (kStreamVersion << 4));
}

}  // namespace

std::uint16_t header_vector_dim(std::size_t vector_dim) {
  DLCOMP_CHECK_MSG(vector_dim <= UINT16_MAX,
                   "vector_dim " << vector_dim << " exceeds the stream "
                                 << "header's limit of " << UINT16_MAX);
  return static_cast<std::uint16_t>(vector_dim);
}

std::size_t append_header(std::vector<std::byte>& out, const StreamHeader& h) {
  append_pod(out, StreamHeader::kMagic);
  append_pod(out, static_cast<std::uint8_t>(h.codec));
  append_pod(out, versioned_flags(h.flags));
  append_pod(out, h.vector_dim);
  append_pod(out, h.element_count);
  append_pod(out, h.effective_error_bound);
  const std::size_t field_offset = out.size();
  append_pod(out, h.payload_bytes);
  return field_offset;
}

void patch_payload_bytes(std::vector<std::byte>& out, std::size_t field_offset,
                         std::uint64_t payload_bytes) {
  DLCOMP_CHECK(field_offset + sizeof(payload_bytes) <= out.size());
  std::memcpy(out.data() + field_offset, &payload_bytes, sizeof(payload_bytes));
}

void patch_flags(std::vector<std::byte>& out, std::size_t field_offset,
                 std::uint8_t flags) {
  // Header layout: magic(4) codec(1) flags(1) dim(2) count(8) eb(8)
  // payload_bytes(8); the flags byte sits 19 bytes before payload_bytes.
  constexpr std::size_t kFlagsBack = 2 + 8 + 8 + 1;
  DLCOMP_CHECK(field_offset >= kFlagsBack);
  out[field_offset - kFlagsBack] = static_cast<std::byte>(versioned_flags(flags));
}

StreamHeader parse_header(std::span<const std::byte> stream,
                          std::span<const std::byte>& payload) {
  ByteReader reader(stream);
  const auto magic = reader.read<std::uint32_t>();
  if (magic != StreamHeader::kMagic) {
    throw FormatError("bad stream magic");
  }
  StreamHeader h;
  h.codec = static_cast<CodecId>(reader.read<std::uint8_t>());
  const std::uint8_t wire_flags = reader.read<std::uint8_t>();
  const std::uint8_t version = wire_flags >> 4;
  if (version != kStreamVersion) {
    throw FormatError("unsupported stream format version " +
                      std::to_string(version) + " (expected " +
                      std::to_string(kStreamVersion) + ")");
  }
  h.flags = wire_flags & kFlagBitsMask;
  h.vector_dim = reader.read<std::uint16_t>();
  h.element_count = reader.read<std::uint64_t>();
  h.effective_error_bound = reader.read<double>();
  h.payload_bytes = reader.read<std::uint64_t>();
  if (reader.remaining() < h.payload_bytes) {
    throw FormatError("stream payload truncated");
  }
  payload = stream.subspan(reader.position(), h.payload_bytes);
  return h;
}

}  // namespace dlcomp
