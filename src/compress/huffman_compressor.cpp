#include "compress/huffman_compressor.hpp"

#include "common/timer.hpp"
#include "compress/format.hpp"
#include "compress/huffman_coding.hpp"
#include "compress/kernels.hpp"
#include "compress/workspace.hpp"

namespace dlcomp {

CompressionStats HuffmanCompressor::compress(std::span<const float> input,
                                             const CompressParams& params,
                                             std::vector<std::byte>& out) const {
  return compress(input, params, out, thread_local_workspace());
}

CompressionStats HuffmanCompressor::compress(std::span<const float> input,
                                             const CompressParams& params,
                                             std::vector<std::byte>& out,
                                             CompressionWorkspace& ws) const {
  WallTimer timer;
  const std::size_t start = out.size();
  const double eb = resolve_error_bound(input, params);

  std::span<const std::uint32_t> symbols;
  if (!input.empty()) {
    const auto scratch = ws.symbols(input.size());
    kernels::quantize_to_symbols(input, eb, scratch, &ws.histogram());
    symbols = scratch;
  }
  compress_with_symbols(input.size(), eb, params, symbols, ws.histogram(),
                        out, ws);

  CompressionStats stats;
  stats.input_bytes = input.size_bytes();
  stats.output_bytes = out.size() - start;
  stats.seconds = timer.seconds();
  return stats;
}

void HuffmanCompressor::compress_with_symbols(
    std::size_t element_count, double eb, const CompressParams& params,
    std::span<const std::uint32_t> symbols, const SymbolHistogram& histogram,
    std::vector<std::byte>& out, CompressionWorkspace& ws,
    bool rebuild_codec) const {
  DLCOMP_CHECK(symbols.size() == element_count);

  StreamHeader header;
  header.codec = CodecId::kHuffman;
  header.vector_dim = header_vector_dim(params.vector_dim);
  header.element_count = element_count;
  header.effective_error_bound = eb;
  const std::size_t patch_at = append_header(out, header);
  const std::size_t payload_start = out.size();

  if (element_count > 0) {
    HuffmanCodec& codec = ws.huffman();
    if (rebuild_codec) codec.build_from_histogram_in_place(histogram);
    codec.serialize_table(out);
    BitWriter& writer = ws.writer();
    writer.reset();
    codec.encode(symbols, writer);
    writer.finish_into(out);
  }

  patch_payload_bytes(out, patch_at, out.size() - payload_start);
}

double HuffmanCompressor::decompress(std::span<const std::byte> stream,
                                     std::span<float> out) const {
  return decompress(stream, out, thread_local_workspace());
}

double HuffmanCompressor::decompress(std::span<const std::byte> stream,
                                     std::span<float> out,
                                     CompressionWorkspace& ws) const {
  WallTimer timer;
  std::span<const std::byte> payload;
  const StreamHeader header = parse_header(stream, payload);
  DLCOMP_CHECK(header.codec == CodecId::kHuffman);
  DLCOMP_CHECK_MSG(out.size() == header.element_count,
                   "output span size " << out.size() << " != stream count "
                                       << header.element_count);
  if (out.empty()) return timer.seconds();

  ByteReader reader(payload);
  HuffmanCodec& codec = ws.huffman();
  codec.deserialize_table_in_place(reader);

  const auto symbols = ws.symbols(out.size());
  BitReader bits(payload.subspan(reader.position()));
  codec.decode(bits, symbols);

  kernels::dequantize_symbols(symbols, header.effective_error_bound, out);
  return timer.seconds();
}

}  // namespace dlcomp
