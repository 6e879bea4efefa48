#include "compress/deflate_like.hpp"

#include <cstring>
#include <vector>

#include "compress/format.hpp"
#include "compress/huffman_coding.hpp"
#include "compress/lzss.hpp"

namespace dlcomp {

void DeflateLikeCompressor::do_compress(std::span<const float> input,
                                        const CompressParams& /*params*/,
                                        std::vector<std::byte>& out,
                                        CompressionWorkspace& /*ws*/) const {
  StreamHeader header;
  header.codec = id();
  header.element_count = input.size();
  const std::size_t patch_at = append_header(out, header);
  const std::size_t payload_start = out.size();

  if (!input.empty()) {
    // Stage 1: byte LZSS.
    std::vector<std::byte> lz_bytes;
    const std::span<const std::byte> raw{
        reinterpret_cast<const std::byte*>(input.data()), input.size_bytes()};
    lzss::compress_bytes(raw, lzss::Config{}, lz_bytes);

    // Stage 2: byte-wise Huffman over the token stream.
    std::vector<std::uint32_t> symbols(lz_bytes.size());
    for (std::size_t i = 0; i < lz_bytes.size(); ++i) {
      symbols[i] = std::to_integer<std::uint32_t>(lz_bytes[i]);
    }
    const HuffmanCodec codec = HuffmanCodec::build(symbols);

    append_varint(out, lz_bytes.size());
    codec.serialize_table(out);
    BitWriter writer;
    codec.encode(symbols, writer);
    writer.finish_into(out);

    // Stored-block fallback: never expand past the raw bytes.
    if (out.size() - payload_start >= raw.size()) {
      out.resize(payload_start);
      out.insert(out.end(), raw.begin(), raw.end());
      patch_flags(out, patch_at, kFlagStoredRaw);
    }
  }

  patch_payload_bytes(out, patch_at, out.size() - payload_start);
}

void DeflateLikeCompressor::do_decompress(const StreamHeader& header,
                                          std::span<const std::byte> payload,
                                          std::span<float> out,
                                          CompressionWorkspace& /*ws*/) const {
  if (header.flags & kFlagStoredRaw) {
    DLCOMP_CHECK(payload.size() == out.size_bytes());
    std::memcpy(out.data(), payload.data(), payload.size());
    return;
  }

  std::size_t pos = 0;
  const std::uint64_t lz_size = read_varint(payload, pos);
  ByteReader reader(payload.subspan(pos));
  const HuffmanCodec codec = HuffmanCodec::deserialize_table(reader);

  std::vector<std::uint32_t> symbols(lz_size);
  BitReader bits(payload.subspan(pos + reader.position()));
  codec.decode(bits, symbols);

  std::vector<std::byte> lz_bytes(lz_size);
  for (std::size_t i = 0; i < lz_size; ++i) {
    lz_bytes[i] = static_cast<std::byte>(symbols[i]);
  }

  const std::span<std::byte> raw{reinterpret_cast<std::byte*>(out.data()),
                                 out.size_bytes()};
  lzss::decompress_bytes(lz_bytes, raw);
}

}  // namespace dlcomp
