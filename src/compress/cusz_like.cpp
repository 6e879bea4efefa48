#include "compress/cusz_like.hpp"

#include <vector>

#include "common/bitstream.hpp"
#include "common/timer.hpp"
#include "compress/format.hpp"
#include "compress/huffman_coding.hpp"
#include "compress/kernels.hpp"
#include "compress/workspace.hpp"

namespace dlcomp {

CompressionStats CuszLikeCompressor::compress(std::span<const float> input,
                                              const CompressParams& params,
                                              std::vector<std::byte>& out) const {
  return compress(input, params, out, thread_local_workspace());
}

CompressionStats CuszLikeCompressor::compress(std::span<const float> input,
                                              const CompressParams& params,
                                              std::vector<std::byte>& out,
                                              CompressionWorkspace& ws) const {
  DLCOMP_CHECK(params.vector_dim > 0);
  WallTimer timer;
  const std::size_t start = out.size();
  const double eb = resolve_error_bound(input, params);

  StreamHeader header;
  header.codec = CodecId::kCuszLike;
  header.vector_dim = header_vector_dim(params.vector_dim);
  header.element_count = input.size();
  header.effective_error_bound = eb;
  const std::size_t patch_at = append_header(out, header);
  const std::size_t payload_start = out.size();

  if (!input.empty()) {
    const auto symbols = ws.symbols(input.size());
    const auto recon = ws.recon(input.size());
    kernels::lorenzo_encode_fused(input, params.vector_dim, eb, recon,
                                  symbols, &ws.histogram());

    HuffmanCodec& codec = ws.huffman();
    codec.build_from_histogram_in_place(ws.histogram());
    codec.serialize_table(out);
    BitWriter& writer = ws.writer();
    writer.reset();
    codec.encode(symbols, writer);
    writer.finish_into(out);
  }

  patch_payload_bytes(out, patch_at, out.size() - payload_start);
  CompressionStats stats;
  stats.input_bytes = input.size_bytes();
  stats.output_bytes = out.size() - start;
  stats.seconds = timer.seconds();
  return stats;
}

double CuszLikeCompressor::decompress(std::span<const std::byte> stream,
                                      std::span<float> out) const {
  return decompress(stream, out, thread_local_workspace());
}

double CuszLikeCompressor::decompress(std::span<const std::byte> stream,
                                      std::span<float> out,
                                      CompressionWorkspace& ws) const {
  WallTimer timer;
  std::span<const std::byte> payload;
  const StreamHeader header = parse_header(stream, payload);
  DLCOMP_CHECK(header.codec == CodecId::kCuszLike);
  DLCOMP_CHECK(out.size() == header.element_count);
  if (out.empty()) return timer.seconds();

  ByteReader reader(payload);
  HuffmanCodec& codec = ws.huffman();
  codec.deserialize_table_in_place(reader);
  const auto symbols = ws.symbols(out.size());
  BitReader bits(payload.subspan(reader.position()));
  codec.decode(bits, symbols);

  kernels::lorenzo_decode_fused(symbols, header.vector_dim,
                                header.effective_error_bound, out);
  return timer.seconds();
}

std::vector<std::int32_t> CuszLikeCompressor::prediction_codes(
    std::span<const float> input, const CompressParams& params) {
  const double eb = resolve_error_bound(input, params);
  CompressionWorkspace& ws = thread_local_workspace();
  const auto symbols = ws.symbols(input.size());
  kernels::lorenzo_encode_fused(input, params.vector_dim, eb,
                                ws.recon(input.size()), symbols, nullptr);
  std::vector<std::int32_t> codes(input.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = zigzag_decode32(symbols[i]);
  }
  return codes;
}

}  // namespace dlcomp
