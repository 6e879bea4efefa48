#include "compress/huffman_compressor.hpp"

#include "compress/format.hpp"
#include "compress/huffman_coding.hpp"
#include "compress/kernels.hpp"
#include "compress/workspace.hpp"

namespace dlcomp {

void HuffmanCompressor::do_compress(std::span<const float> input,
                                    const CompressParams& params,
                                    std::vector<std::byte>& out,
                                    CompressionWorkspace& ws) const {
  const double eb = resolve_error_bound(input, params);

  std::span<const std::uint32_t> symbols;
  if (!input.empty()) {
    const auto scratch = ws.symbols(input.size());
    kernels::quantize_to_symbols(input, eb, scratch, &ws.histogram());
    symbols = scratch;
  }
  compress_with_symbols(input.size(), eb, params, symbols, ws.histogram(),
                        out, ws);
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

void HuffmanCompressor::do_decompress(const StreamHeader& header,
                                      std::span<const std::byte> payload,
                                      std::span<float> out,
                                      CompressionWorkspace& ws) const {
  ByteReader reader(payload);
  HuffmanCodec& codec = ws.huffman();
  codec.deserialize_table_in_place(reader);

  const auto symbols = ws.symbols(out.size());
  BitReader bits(payload.subspan(reader.position()));
  codec.decode(bits, symbols);

  kernels::dequantize_symbols(symbols, header.effective_error_bound, out);
}

}  // namespace dlcomp
