#pragma once

/// \file hybrid.hpp
/// The paper's hybrid compressor: per-table selection between the
/// vector-based LZ encoder and the optimized entropy (Huffman) encoder,
/// both over the shared error-bounded quantizer. The selection is made
/// offline by the CompressorSelector (Eq. 2); at compress time the choice
/// arrives via CompressParams::hybrid_choice, with kAuto falling back to
/// "try both, keep the smaller stream" (used when no offline config
/// exists, e.g. in the quickstart example).

#include "compress/compressor.hpp"

namespace dlcomp {

/// The hybrid's two candidate streams for one input, sized without
/// writing either (HybridCompressor::size_candidates).
struct HybridSizing {
  std::span<const std::int32_t> codes;     ///< quantization codes, in ws
  std::span<const std::uint32_t> symbols;  ///< their zigzag symbols, in ws
  std::uint64_t max_symbol = 0;            ///< largest symbol
  std::size_t vector_lz_bytes = 0;  ///< exact vector-LZ stream size
  std::size_t huffman_bytes = 0;    ///< exact Huffman stream size
  std::size_t lz_matches = 0;       ///< vectors vector-LZ back-references
};

class HybridCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "hybrid";
  }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kHybrid;
  }
  [[nodiscard]] bool lossy() const noexcept override { return true; }

  /// Which inner codec a compressed stream used (diagnostic).
  static HybridChoice stream_choice(std::span<const std::byte> stream);

  /// Quantizes non-empty `input` once under the resolved bound `eb` and
  /// returns the exact sizes of the streams the vector-LZ and Huffman
  /// codecs would write for it, without encoding either: vector-LZ's from
  /// one match scan, Huffman's from the histogram (payload bits = sum of
  /// length x frequency, plus the canonical table). `ws` keeps what a
  /// writer needs next: the codes and symbols, vector-LZ's tokens
  /// (write_planned), and the histogram with ws.huffman() built from it
  /// (compress_with_symbols, rebuild_codec=false). Used by kAuto and by
  /// the offline selector (core/selector.hpp).
  static HybridSizing size_candidates(std::span<const float> input, double eb,
                                      const CompressParams& params,
                                      CompressionWorkspace& ws);

 private:
  void do_compress(std::span<const float> input, const CompressParams& params,
                   std::vector<std::byte>& out,
                   CompressionWorkspace& ws) const override;
  void do_decompress(const StreamHeader& header,
                     std::span<const std::byte> payload, std::span<float> out,
                     CompressionWorkspace& ws) const override;
};

}  // namespace dlcomp
