#pragma once

/// \file container.hpp
/// The `.dlck` checkpoint container: a versioned, CRC-checked binary
/// envelope for model snapshots. Layout (little endian):
///
///   file header (fixed):
///     u32 magic 'DLCK' | u16 version | u16 kind (full=0, delta=1) |
///     u64 checkpoint_id | u64 parent_id | u64 iteration | u64 seed |
///     u32 section_count
///   then `section_count` sections back-to-back:
///     u8 type | u32 id | u64 payload_bytes | u32 crc32(payload) | payload
///
/// `id` carries the table index for per-table sections and 0 otherwise.
/// Every payload is CRC-checked on read before any byte reaches a codec
/// or a weight buffer; a mismatch throws FormatError. Delta containers
/// name their parent (by checkpoint_id and by filename inside the meta
/// section) so readers can replay full -> delta -> delta chains.
///
/// Writers build the file image in place with SectionWriter (below) and
/// hand it to write_file (common/file_io.hpp), which reports a full disk.
///
/// See DESIGN.md "Checkpoint container" for the rationale and the
/// section payload layouts.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_io.hpp"

namespace dlcomp {

inline constexpr std::uint32_t kCkptMagic = 0x4B434C44u;  // "DLCK"
inline constexpr std::uint16_t kCkptVersion = 1;

/// Snapshot kind: full state, or sparse rows changed since the parent.
enum class CkptKind : std::uint16_t { kFull = 0, kDelta = 1 };

/// Section types inside a container.
enum class CkptSection : std::uint8_t {
  kMeta = 1,        ///< codec name, per-table bounds, parent filename
  kMlpBottom = 2,   ///< bottom MLP parameters, raw float32
  kMlpTop = 3,      ///< top MLP parameters, raw float32
  kTableFull = 4,   ///< one embedding table, raw or codec stream
  kTableDelta = 5,  ///< touched-row bitmap + changed rows for one table
  kOptState = 6,    ///< full optimizer state (Adagrad accumulator) rows
  kOptDelta = 7,    ///< sparse optimizer-state rows changed since parent
};

struct CkptHeader {
  CkptKind kind = CkptKind::kFull;
  std::uint64_t checkpoint_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 for full snapshots
  std::uint64_t iteration = 0;  ///< completed training iterations
  std::uint64_t seed = 0;       ///< trainer seed the state was grown from
  std::uint32_t section_count = 0;
};

/// Parses and validates the file header (magic + version); throws
/// FormatError on mismatch or truncation.
CkptHeader parse_ckpt_header(ByteReader& reader);

/// Writes a container in place in its file image. begin() reserves a
/// section header, the payload goes straight into the image through
/// ByteWriter's put/fill, and end() patches the payload size and CRC, so
/// no section is staged in a buffer of its own. A default-constructed
/// writer measures: running the same emission code through it first
/// sizes the image (and every section's offset), after which writers at
/// those offsets fill disjoint parts of the image, concurrently if the
/// caller likes.
class SectionWriter : public ByteWriter {
 public:
  using ByteWriter::ByteWriter;

  /// The fixed file header.
  void put_header(const CkptHeader& header);

  /// u16 length + bytes (throws Error above 65535 bytes).
  void put_string(std::string_view text);

  void begin(CkptSection type, std::uint32_t id);
  void end();

 private:
  std::size_t size_at_ = 0;
};

/// One parsed section; `payload` views into the container buffer.
struct SectionView {
  CkptSection type{};
  std::uint32_t id = 0;
  std::span<const std::byte> payload;
  std::uint32_t crc = 0;  ///< as stored
};

/// Reads the next section and verifies its CRC; throws FormatError on
/// truncation or checksum mismatch.
SectionView read_section(ByteReader& reader);

/// read_section without the CRC check, for an image this process has
/// just framed itself (the checkpoint writer's deferred shadow).
SectionView read_framed_section(ByteReader& reader);

/// Reads a SectionWriter::put_string string; throws FormatError if the
/// stored length overruns the buffer.
std::string read_string(ByteReader& reader);

/// Whole-file read; throws Error when the file is missing. Writers use
/// write_file (common/file_io.hpp).
std::vector<std::byte> read_container(const std::string& path);

}  // namespace dlcomp
