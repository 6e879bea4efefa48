#include "compress/hybrid.hpp"

#include <vector>

#include "common/error.hpp"
#include "compress/format.hpp"
#include "compress/huffman_compressor.hpp"
#include "compress/kernels.hpp"
#include "compress/vector_lz.hpp"
#include "compress/workspace.hpp"

namespace dlcomp {

namespace {

const VectorLzCompressor& vector_lz_codec() {
  static const VectorLzCompressor codec;
  return codec;
}

const HuffmanCompressor& huffman_codec() {
  static const HuffmanCompressor codec;
  return codec;
}

}  // namespace

void HybridCompressor::do_compress(std::span<const float> input,
                                   const CompressParams& params,
                                   std::vector<std::byte>& out,
                                   CompressionWorkspace& ws) const {
  StreamHeader header;
  header.codec = id();
  header.vector_dim = header_vector_dim(params.vector_dim);
  header.element_count = input.size();
  // Mirror the effective bound in the outer header so stream inspection
  // does not need to descend into the inner stream.
  header.effective_error_bound =
      input.empty() ? 0.0 : resolve_error_bound(input, params);
  const std::size_t patch_at = append_header(out, header);
  const std::size_t payload_start = out.size();

  HybridChoice choice = params.hybrid_choice;
  if (choice == HybridChoice::kAuto && !input.empty()) {
    // No offline decision available: pick the smaller stream (the online
    // fallback), sharing one quantization pass between both candidates
    // and sizing both exactly without encoding either. Only the winner
    // is written, so stream bytes are identical to encoding both and
    // keeping the smaller (ties go to vector-LZ).
    const double eb = header.effective_error_bound;
    const HybridSizing sized = size_candidates(input, eb, params, ws);
    choice = sized.vector_lz_bytes <= sized.huffman_bytes
                 ? HybridChoice::kVectorLz
                 : HybridChoice::kHuffman;
    out.push_back(static_cast<std::byte>(choice));
    if (choice == HybridChoice::kVectorLz) {
      const std::size_t lz_start = out.size();
      vector_lz_codec().write_planned(sized.codes, eb, sized.max_symbol,
                                      params, out, ws);
      DLCOMP_CHECK(out.size() - lz_start == sized.vector_lz_bytes);
    } else {
      huffman_codec().compress_with_symbols(input.size(), eb, params,
                                            sized.symbols, ws.histogram(),
                                            out, ws, /*rebuild_codec=*/false);
    }
  } else if (choice == HybridChoice::kAuto) {
    // Empty input: both candidates are bare headers of equal size, so the
    // tie-break picks vector-LZ, matching the encode-both reference.
    choice = HybridChoice::kVectorLz;
    out.push_back(static_cast<std::byte>(choice));
    vector_lz_codec().compress(input, params, out, ws);
  } else {
    out.push_back(static_cast<std::byte>(choice));
    if (choice == HybridChoice::kVectorLz) {
      vector_lz_codec().compress(input, params, out, ws);
    } else {
      huffman_codec().compress(input, params, out, ws);
    }
  }

  patch_payload_bytes(out, patch_at, out.size() - payload_start);
}

void HybridCompressor::do_decompress(const StreamHeader& /*header*/,
                                     std::span<const std::byte> payload,
                                     std::span<float> out,
                                     CompressionWorkspace& ws) const {
  if (payload.empty()) throw FormatError("hybrid stream missing selector");

  const auto choice = static_cast<HybridChoice>(payload[0]);
  const auto inner = payload.subspan(1);
  switch (choice) {
    case HybridChoice::kVectorLz:
      vector_lz_codec().decompress(inner, out, ws);
      break;
    case HybridChoice::kHuffman:
      huffman_codec().decompress(inner, out, ws);
      break;
    default:
      throw FormatError("unknown hybrid selector");
  }
}

HybridSizing HybridCompressor::size_candidates(std::span<const float> input,
                                               double eb,
                                               const CompressParams& params,
                                               CompressionWorkspace& ws) {
  DLCOMP_CHECK(!input.empty());
  HybridSizing sized;
  const auto codes = ws.codes(input.size());
  sized.max_symbol = kernels::quantize_to_codes(input, eb, codes);
  const auto symbols = ws.symbols(input.size());
  kernels::codes_to_symbols(codes, symbols, &ws.histogram());
  sized.codes = codes;
  sized.symbols = symbols;

  const VectorLzCompressor::Plan plan =
      vector_lz_codec().plan(codes, sized.max_symbol, params, ws);
  sized.vector_lz_bytes = plan.stream_bytes;
  sized.lz_matches = plan.matches;

  HuffmanCodec& codec = ws.huffman();
  codec.build_from_histogram_in_place(ws.histogram());
  sized.huffman_bytes = StreamHeader::kBytes +
                        codec.serialized_table_bytes() +
                        (codec.build_payload_bits() + 7) / 8;
  return sized;
}

HybridChoice HybridCompressor::stream_choice(std::span<const std::byte> stream) {
  std::span<const std::byte> payload;
  const StreamHeader header = parse_header(stream, payload);
  DLCOMP_CHECK(header.codec == CodecId::kHybrid);
  if (payload.empty()) throw FormatError("hybrid stream missing selector");
  return static_cast<HybridChoice>(payload[0]);
}

}  // namespace dlcomp
