#pragma once

/// \file deflate_like.hpp
/// Lossless LZ + entropy baseline, standing in for nvCOMP Deflate: the
/// LZSS token stream is further Huffman-coded byte-wise. The paper finds
/// it compresses marginally better than LZ4 at lower throughput; the same
/// relation emerges here.

#include "compress/compressor.hpp"

namespace dlcomp {

class DeflateLikeCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "deflate-like";
  }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kDeflateLike;
  }
  [[nodiscard]] bool lossy() const noexcept override { return false; }

 private:
  void do_compress(std::span<const float> input, const CompressParams& params,
                   std::vector<std::byte>& out,
                   CompressionWorkspace& ws) const override;
  void do_decompress(const StreamHeader& header,
                     std::span<const std::byte> payload, std::span<float> out,
                     CompressionWorkspace& ws) const override;
};

}  // namespace dlcomp
