#include "compress/cusz_like.hpp"

#include <vector>

#include "common/bitstream.hpp"
#include "compress/format.hpp"
#include "compress/huffman_coding.hpp"
#include "compress/kernels.hpp"
#include "compress/workspace.hpp"

namespace dlcomp {

void CuszLikeCompressor::do_compress(std::span<const float> input,
                                     const CompressParams& params,
                                     std::vector<std::byte>& out,
                                     CompressionWorkspace& ws) const {
  DLCOMP_CHECK(params.vector_dim > 0);
  const double eb = resolve_error_bound(input, params);

  StreamHeader header;
  header.codec = id();
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
}

void CuszLikeCompressor::do_decompress(const StreamHeader& header,
                                       std::span<const std::byte> payload,
                                       std::span<float> out,
                                       CompressionWorkspace& ws) const {
  ByteReader reader(payload);
  HuffmanCodec& codec = ws.huffman();
  codec.deserialize_table_in_place(reader);
  const auto symbols = ws.symbols(out.size());
  BitReader bits(payload.subspan(reader.position()));
  codec.decode(bits, symbols);

  kernels::lorenzo_decode_fused(symbols, header.vector_dim,
                                header.effective_error_bound, out);
}

}  // namespace dlcomp
