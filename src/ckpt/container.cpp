#include "ckpt/container.hpp"

#include <fstream>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace dlcomp {

CkptHeader parse_ckpt_header(ByteReader& reader) {
  const auto magic = reader.read<std::uint32_t>();
  if (magic != kCkptMagic) {
    throw FormatError("bad checkpoint magic (not a .dlck container)");
  }
  const auto version = reader.read<std::uint16_t>();
  if (version != kCkptVersion) {
    throw FormatError("unsupported checkpoint version " +
                      std::to_string(version) + " (expected " +
                      std::to_string(kCkptVersion) + ")");
  }
  CkptHeader h;
  const auto kind = reader.read<std::uint16_t>();
  if (kind > static_cast<std::uint16_t>(CkptKind::kDelta)) {
    throw FormatError("unknown checkpoint kind " + std::to_string(kind));
  }
  h.kind = static_cast<CkptKind>(kind);
  h.checkpoint_id = reader.read<std::uint64_t>();
  h.parent_id = reader.read<std::uint64_t>();
  h.iteration = reader.read<std::uint64_t>();
  h.seed = reader.read<std::uint64_t>();
  h.section_count = reader.read<std::uint32_t>();
  return h;
}

void SectionWriter::put_header(const CkptHeader& header) {
  put(kCkptMagic);
  put(kCkptVersion);
  put(static_cast<std::uint16_t>(header.kind));
  put(header.checkpoint_id);
  put(header.parent_id);
  put(header.iteration);
  put(header.seed);
  put(header.section_count);
}

void SectionWriter::put_string(std::string_view text) {
  DLCOMP_CHECK_MSG(text.size() <= 0xFFFF,
                   "string too long for checkpoint: " << text.size());
  put(static_cast<std::uint16_t>(text.size()));
  put_bytes(std::as_bytes(std::span<const char>(text)));
}

void SectionWriter::begin(CkptSection type, std::uint32_t id) {
  put(static_cast<std::uint8_t>(type));
  put(id);
  size_at_ = pos_;  // u64 payload_bytes | u32 crc, patched by end()
  fill(sizeof(std::uint64_t) + sizeof(std::uint32_t),
       [](std::span<std::byte>) {});
}

void SectionWriter::end() {
  if (measuring()) return;
  const std::size_t payload_at =
      size_at_ + sizeof(std::uint64_t) + sizeof(std::uint32_t);
  const auto payload = out_.subspan(payload_at, pos_ - payload_at);
  ByteWriter patch(out_, size_at_);
  patch.put(static_cast<std::uint64_t>(payload.size()));
  patch.put(crc32(payload));
}

SectionView read_framed_section(ByteReader& reader) {
  SectionView section;
  const auto type = reader.read<std::uint8_t>();
  if (type < static_cast<std::uint8_t>(CkptSection::kMeta) ||
      type > static_cast<std::uint8_t>(CkptSection::kOptDelta)) {
    throw FormatError("unknown checkpoint section type " + std::to_string(type));
  }
  section.type = static_cast<CkptSection>(type);
  section.id = reader.read<std::uint32_t>();
  const auto payload_bytes = reader.read<std::uint64_t>();
  section.crc = reader.read<std::uint32_t>();
  section.payload = reader.take(payload_bytes);
  return section;
}

SectionView read_section(ByteReader& reader) {
  const SectionView section = read_framed_section(reader);
  if (crc32(section.payload) != section.crc) {
    throw FormatError("checkpoint section CRC mismatch (type " +
                      std::to_string(static_cast<int>(section.type)) +
                      ", id " + std::to_string(section.id) + ")");
  }
  return section;
}

std::string read_string(ByteReader& reader) {
  const auto length = reader.read<std::uint16_t>();
  const auto bytes = reader.take(length);
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

std::vector<std::byte> read_container(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw Error("cannot open checkpoint: " + path);
  is.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(is.tellg());
  is.seekg(0);
  std::vector<std::byte> data(size);
  is.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  if (!is.good()) throw Error("checkpoint read failed: " + path);
  return data;
}

}  // namespace dlcomp
