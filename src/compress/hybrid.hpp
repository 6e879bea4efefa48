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

 private:
  void do_compress(std::span<const float> input, const CompressParams& params,
                   std::vector<std::byte>& out,
                   CompressionWorkspace& ws) const override;
  void do_decompress(const StreamHeader& header,
                     std::span<const std::byte> payload, std::span<float> out,
                     CompressionWorkspace& ws) const override;
};

}  // namespace dlcomp
