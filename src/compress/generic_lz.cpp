#include "compress/generic_lz.hpp"

#include <cstring>

#include "compress/format.hpp"
#include "compress/lzss.hpp"

namespace dlcomp {

void GenericLzCompressor::do_compress(std::span<const float> input,
                                      const CompressParams& /*params*/,
                                      std::vector<std::byte>& out,
                                      CompressionWorkspace& /*ws*/) const {
  // Lossless: error bound and vector shape are irrelevant.
  StreamHeader header;
  header.codec = id();
  header.element_count = input.size();
  const std::size_t patch_at = append_header(out, header);
  const std::size_t payload_start = out.size();

  const std::span<const std::byte> raw{
      reinterpret_cast<const std::byte*>(input.data()), input.size_bytes()};
  lzss::compress_bytes(raw, lzss::Config{}, out);

  // Stored-block fallback (as LZ4/Deflate do): never expand past the raw
  // bytes; the header flag marks a stored payload.
  if (out.size() - payload_start >= raw.size() && !raw.empty()) {
    out.resize(payload_start);
    out.insert(out.end(), raw.begin(), raw.end());
    patch_flags(out, patch_at, kFlagStoredRaw);
  }

  patch_payload_bytes(out, patch_at, out.size() - payload_start);
}

void GenericLzCompressor::do_decompress(const StreamHeader& header,
                                        std::span<const std::byte> payload,
                                        std::span<float> out,
                                        CompressionWorkspace& /*ws*/) const {
  const std::span<std::byte> raw{reinterpret_cast<std::byte*>(out.data()),
                                 out.size_bytes()};
  if (header.flags & kFlagStoredRaw) {
    DLCOMP_CHECK(payload.size() == raw.size());
    std::memcpy(raw.data(), payload.data(), payload.size());
  } else {
    lzss::decompress_bytes(payload, raw);
  }
}

}  // namespace dlcomp
