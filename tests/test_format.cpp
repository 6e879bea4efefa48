// Tests for the stream format, byte IO, CRC-32, whole-file writes and
// table printer utilities.

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "common/byte_io.hpp"
#include "common/crc32.hpp"
#include "common/file_io.hpp"
#include "common/rng.hpp"
#include "common/table_printer.hpp"
#include "compress/format.hpp"
#include "support/reference_crc32.hpp"

namespace dlcomp {
namespace {

TEST(StreamHeaderTest, RoundTrip) {
  StreamHeader h;
  h.codec = CodecId::kVectorLz;
  h.flags = 0x5;
  h.vector_dim = 64;
  h.element_count = 123456789ULL;
  h.effective_error_bound = 0.0125;

  std::vector<std::byte> buffer;
  const std::size_t patch_at = append_header(buffer, h);
  // Payload of 7 bytes.
  for (int i = 0; i < 7; ++i) buffer.push_back(std::byte{0xAB});
  patch_payload_bytes(buffer, patch_at, 7);

  std::span<const std::byte> payload;
  const StreamHeader parsed = parse_header(buffer, payload);
  EXPECT_EQ(parsed.codec, CodecId::kVectorLz);
  EXPECT_EQ(parsed.flags, 0x5);
  EXPECT_EQ(parsed.vector_dim, 64);
  EXPECT_EQ(parsed.element_count, 123456789ULL);
  EXPECT_DOUBLE_EQ(parsed.effective_error_bound, 0.0125);
  EXPECT_EQ(payload.size(), 7u);
  EXPECT_EQ(payload[0], std::byte{0xAB});
}

TEST(StreamHeaderTest, PatchFlagsRewritesInPlace) {
  StreamHeader h;
  h.codec = CodecId::kGenericLz;
  std::vector<std::byte> buffer;
  const std::size_t patch_at = append_header(buffer, h);
  patch_flags(buffer, patch_at, kFlagStoredRaw);
  patch_payload_bytes(buffer, patch_at, 0);

  std::span<const std::byte> payload;
  const StreamHeader parsed = parse_header(buffer, payload);
  EXPECT_EQ(parsed.flags, kFlagStoredRaw);
}

TEST(StreamHeaderTest, BadMagicRejected) {
  std::vector<std::byte> buffer(StreamHeader::kBytes, std::byte{0x00});
  std::span<const std::byte> payload;
  EXPECT_THROW(parse_header(buffer, payload), FormatError);
}

TEST(StreamHeaderTest, TruncatedHeaderRejected) {
  StreamHeader h;
  std::vector<std::byte> buffer;
  append_header(buffer, h);
  buffer.resize(buffer.size() / 2);
  std::span<const std::byte> payload;
  EXPECT_THROW(parse_header(buffer, payload), FormatError);
}

TEST(StreamHeaderTest, VersionStampedAndStripped) {
  StreamHeader h;
  h.codec = CodecId::kHuffman;
  h.flags = kFlagStoredRaw;
  std::vector<std::byte> buffer;
  const std::size_t patch_at = append_header(buffer, h);
  patch_payload_bytes(buffer, patch_at, 0);

  // The wire byte carries the version in its high nibble.
  EXPECT_EQ(static_cast<std::uint8_t>(buffer[5]) >> 4, kStreamVersion);

  // Parsing strips the version so callers see only flag bits.
  std::span<const std::byte> payload;
  const StreamHeader parsed = parse_header(buffer, payload);
  EXPECT_EQ(parsed.flags, kFlagStoredRaw);
}

TEST(StreamHeaderTest, WrongVersionRejected) {
  StreamHeader h;
  std::vector<std::byte> buffer;
  const std::size_t patch_at = append_header(buffer, h);
  patch_payload_bytes(buffer, patch_at, 0);

  for (const std::uint8_t bogus : {std::uint8_t{0}, std::uint8_t{2},
                                   std::uint8_t{0xF}}) {
    if (bogus == kStreamVersion) continue;
    auto tampered = buffer;
    tampered[5] = static_cast<std::byte>(bogus << 4);  // flags byte
    std::span<const std::byte> payload;
    EXPECT_THROW(parse_header(tampered, payload), FormatError)
        << "version " << int(bogus);
  }
}

TEST(StreamHeaderTest, EveryHeaderTruncationLengthRejected) {
  StreamHeader h;
  std::vector<std::byte> full;
  const std::size_t patch_at = append_header(full, h);
  patch_payload_bytes(full, patch_at, 0);
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    auto cut = full;
    cut.resize(keep);
    std::span<const std::byte> payload;
    EXPECT_THROW(parse_header(cut, payload), FormatError) << "kept " << keep;
  }
}

TEST(StreamHeaderTest, CorruptedMagicEveryByteRejected) {
  StreamHeader h;
  std::vector<std::byte> buffer;
  const std::size_t patch_at = append_header(buffer, h);
  patch_payload_bytes(buffer, patch_at, 0);
  for (std::size_t pos = 0; pos < 4; ++pos) {
    auto tampered = buffer;
    tampered[pos] ^= std::byte{0x40};
    std::span<const std::byte> payload;
    EXPECT_THROW(parse_header(tampered, payload), FormatError)
        << "magic byte " << pos;
  }
}

TEST(StreamHeaderTest, PayloadLongerThanBufferRejected) {
  StreamHeader h;
  std::vector<std::byte> buffer;
  const std::size_t patch_at = append_header(buffer, h);
  patch_payload_bytes(buffer, patch_at, 100);  // payload missing
  std::span<const std::byte> payload;
  EXPECT_THROW(parse_header(buffer, payload), FormatError);
}

TEST(ByteIo, PodRoundTrip) {
  std::vector<std::byte> buffer;
  append_pod(buffer, std::uint32_t{0xDEADBEEF});
  append_pod(buffer, double{3.5});
  append_pod(buffer, std::int16_t{-7});

  ByteReader reader(buffer);
  EXPECT_EQ(reader.read<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_DOUBLE_EQ(reader.read<double>(), 3.5);
  EXPECT_EQ(reader.read<std::int16_t>(), -7);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteIo, SpanRoundTrip) {
  const std::vector<float> values = {1.0f, -2.0f, 0.5f};
  std::vector<std::byte> buffer;
  append_pod_span<float>(buffer, values);

  std::vector<float> out(3);
  ByteReader reader(buffer);
  reader.read_span(std::span<float>(out));
  EXPECT_EQ(out, values);
}

TEST(ByteIo, UnderflowThrows) {
  std::vector<std::byte> buffer;
  append_pod(buffer, std::uint16_t{5});
  ByteReader reader(buffer);
  EXPECT_THROW(reader.read<std::uint64_t>(), FormatError);
}

TEST(ByteIo, TakeAndSkip) {
  std::vector<std::byte> buffer(10, std::byte{0x11});
  buffer[7] = std::byte{0x77};
  ByteReader reader(buffer);
  reader.skip(6);
  const auto slice = reader.take(2);
  EXPECT_EQ(slice[1], std::byte{0x77});
  EXPECT_EQ(reader.remaining(), 2u);
  EXPECT_THROW(reader.take(3), FormatError);
}

TEST(ByteIo, WriterMeasuresThenFillsInPlace) {
  const auto emit = [](ByteWriter& w) {
    w.put(std::uint32_t{0xDEADBEEF});
    w.put_bytes(std::vector<std::byte>(3, std::byte{0x5A}));
    w.fill(2, [](std::span<std::byte> dst) { dst[1] = std::byte{0x77}; });
    w.put(double{3.5});
  };
  ByteWriter measure;
  emit(measure);
  ASSERT_EQ(measure.position(), 4u + 3u + 2u + 8u);

  std::vector<std::byte> buffer(2 + measure.position());
  ByteWriter w(buffer, 2);
  emit(w);
  EXPECT_EQ(w.position(), buffer.size());
  ByteReader reader(buffer);
  reader.skip(2);
  EXPECT_EQ(reader.read<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(reader.take(3)[2], std::byte{0x5A});
  EXPECT_EQ(reader.take(2)[1], std::byte{0x77});
  EXPECT_DOUBLE_EQ(reader.read<double>(), 3.5);
  // Overrunning the pre-sized span is a bug, not a format error.
  EXPECT_THROW(w.put(std::uint8_t{1}), Error);
}

TEST(Crc32, SlicingBy8MatchesTheByteLoop) {
  std::vector<std::byte> data(3 * 1024 * 1024 + 13);
  Rng rng(2024);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
  const auto reference = [](std::span<const std::byte> bytes) {
    return crc32_final(reference::crc32_update(crc32_init(), bytes));
  };
  EXPECT_EQ(crc32(std::as_bytes(std::span<const char>("123456789", 9))),
            0xCBF43926u);  // the standard check value
  // Every short length from every start offset modulo 8 (unaligned).
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const auto bytes = std::span<const std::byte>(data).subspan(start, length);
      EXPECT_EQ(crc32(bytes), reference(bytes))
          << "start " << start << " length " << length;
    }
  }
  // Large, unaligned.
  const auto large = std::span<const std::byte>(data).subspan(3);
  EXPECT_EQ(crc32(large), reference(large));
  // Incremental updates split anywhere give the one-shot value.
  const auto part = std::span<const std::byte>(data).first(4099);
  for (const std::size_t split : {0, 1, 7, 8, 9, 63, 64, 1000, 4098, 4099}) {
    const std::uint32_t state =
        crc32_update(crc32_update(crc32_init(), part.first(split)),
                     part.subspan(split));
    EXPECT_EQ(crc32_final(state), reference(part)) << "split " << split;
  }
}

TEST(FileIo, WritesWholeFilesAndReportsAFullDisk) {
  const auto path =
      (std::filesystem::temp_directory_path() / "dlcomp_write_file.txt")
          .string();
  write_file(path, std::string_view("first, longer content"));
  write_file(path, std::string_view("second"));
  EXPECT_EQ(std::filesystem::file_size(path), 6u);
  std::filesystem::remove(path);
  EXPECT_THROW(write_file("/nonexistent-dir/x", std::string_view("x")), Error);
  // /dev/full accepts the open and the buffered write; the bytes fail to
  // land only when the stream is flushed at close.
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_THROW(write_file("/dev/full", std::string_view("x")), Error);
  }
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"a", "long-header"});
  table.add_row({"wide-cell-content", "x"});
  const std::string out = table.to_string();
  // Three lines: header, separator, row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  // Every line has equal length (alignment).
  std::size_t first_len = out.find('\n');
  std::size_t pos = first_len + 1;
  while (pos < out.size()) {
    const std::size_t next = out.find('\n', pos);
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(TablePrinterTest, ArityMismatchThrows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

}  // namespace
}  // namespace dlcomp
