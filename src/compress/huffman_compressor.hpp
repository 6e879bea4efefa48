#pragma once

/// \file huffman_compressor.hpp
/// The paper's "optimized entropy encoder": error-bounded quantization
/// followed by canonical Huffman coding of the (zigzagged) quantization
/// codes. No prediction stage -- the paper's observation (1) shows Lorenzo
/// prediction is counterproductive on embedding batches (false
/// prediction), so codes are entropy-coded directly.
///
/// Hot path: the fused quantize->zigzag->histogram kernel feeds an
/// in-place table-driven Huffman build; all scratch comes from the
/// workspace (the plain overloads borrow the calling thread's).

#include "compress/compressor.hpp"
#include "compress/histogram.hpp"

namespace dlcomp {

class HuffmanCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "huffman";
  }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kHuffman;
  }
  [[nodiscard]] bool lossy() const noexcept override { return true; }

  /// Hybrid fast path: writes the complete Huffman stream for an input
  /// whose zigzag symbols and histogram (under `eb`) are already known,
  /// skipping the redundant quantization pass. Byte-identical to
  /// compress(). Pass rebuild_codec=false when ws.huffman() was already
  /// built from exactly this histogram (the hybrid sizing path), saving
  /// a redundant table construction.
  void compress_with_symbols(std::size_t element_count, double eb,
                             const CompressParams& params,
                             std::span<const std::uint32_t> symbols,
                             const SymbolHistogram& histogram,
                             std::vector<std::byte>& out,
                             CompressionWorkspace& ws,
                             bool rebuild_codec = true) const;

 private:
  void do_compress(std::span<const float> input, const CompressParams& params,
                   std::vector<std::byte>& out,
                   CompressionWorkspace& ws) const override;
  void do_decompress(const StreamHeader& header,
                     std::span<const std::byte> payload, std::span<float> out,
                     CompressionWorkspace& ws) const override;
};

}  // namespace dlcomp
