#pragma once

/// \file cusz_like.hpp
/// Prediction-based error-bounded baseline in the cuSZ/SZ family: a 2-D
/// Lorenzo predictor over the (batch x dim) embedding grid, error-bounded
/// quantization of the residuals, and Huffman coding of the codes.
///
/// This baseline deliberately reproduces the paper's "false prediction"
/// observation (Sec. III-B (1), Fig. 4): embedding vectors have no spatial
/// correlation across dimensions or neighbors, so Lorenzo residuals carry
/// *more* entropy than the raw values and identical vectors become
/// distinct residual rows -- which is why its ratio trails the
/// DLRM-specific codecs in Table V.
///
/// Hot path: fused Lorenzo+quantize+zigzag+histogram kernel, in-place
/// Huffman build/decode, workspace scratch throughout.

#include "compress/compressor.hpp"

namespace dlcomp {

class CuszLikeCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "cusz-like";
  }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kCuszLike;
  }
  [[nodiscard]] bool lossy() const noexcept override { return true; }

 private:
  void do_compress(std::span<const float> input, const CompressParams& params,
                   std::vector<std::byte>& out,
                   CompressionWorkspace& ws) const override;
  void do_decompress(const StreamHeader& header,
                     std::span<const std::byte> payload, std::span<float> out,
                     CompressionWorkspace& ws) const override;
};

}  // namespace dlcomp
