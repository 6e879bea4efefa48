#include "compress/low_precision.hpp"

#include <vector>

#include "common/float_codec.hpp"
#include "compress/format.hpp"

namespace dlcomp {

void Fp16Compressor::do_compress(std::span<const float> input,
                                 const CompressParams& /*params*/,
                                 std::vector<std::byte>& out,
                                 CompressionWorkspace& /*ws*/) const {
  // Fixed-ratio: no error bound to honor.
  StreamHeader header;
  header.codec = id();
  header.element_count = input.size();
  const std::size_t patch_at = append_header(out, header);
  const std::size_t payload_start = out.size();

  std::vector<std::uint16_t> half(input.size());
  encode_fp16(input, half);
  append_pod_span<std::uint16_t>(out, half);

  patch_payload_bytes(out, patch_at, out.size() - payload_start);
}

void Fp16Compressor::do_decompress(const StreamHeader& /*header*/,
                                   std::span<const std::byte> payload,
                                   std::span<float> out,
                                   CompressionWorkspace& /*ws*/) const {
  std::vector<std::uint16_t> half(out.size());
  ByteReader reader(payload);
  reader.read_span(std::span<std::uint16_t>(half));
  decode_fp16(half, out);
}

void Fp8Compressor::do_compress(std::span<const float> input,
                                const CompressParams& /*params*/,
                                std::vector<std::byte>& out,
                                CompressionWorkspace& /*ws*/) const {
  StreamHeader header;
  header.codec = id();
  header.element_count = input.size();
  const std::size_t patch_at = append_header(out, header);
  const std::size_t payload_start = out.size();

  std::vector<std::uint8_t> bytes(input.size());
  encode_fp8(input, bytes);
  append_pod_span<std::uint8_t>(out, bytes);

  patch_payload_bytes(out, patch_at, out.size() - payload_start);
}

void Fp8Compressor::do_decompress(const StreamHeader& /*header*/,
                                  std::span<const std::byte> payload,
                                  std::span<float> out,
                                  CompressionWorkspace& /*ws*/) const {
  std::vector<std::uint8_t> bytes(out.size());
  ByteReader reader(payload);
  reader.read_span(std::span<std::uint8_t>(bytes));
  decode_fp8(bytes, out);
}

}  // namespace dlcomp
