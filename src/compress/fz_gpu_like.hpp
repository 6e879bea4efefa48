#pragma once

/// \file fz_gpu_like.hpp
/// Throughput-oriented lossy baseline in the FZ-GPU family: error-bounded
/// quantization, bitshuffle (bit-plane transpose) within fixed blocks,
/// and zero-plane suppression. No entropy stage -- which is exactly why
/// the paper reports it as the fastest codec with a clearly lower ratio
/// than the hybrid compressor (Fig. 11).

#include "compress/compressor.hpp"

namespace dlcomp {

class FzGpuLikeCompressor final : public Compressor {
 public:
  /// Values per bitshuffle block; a block transposes into 32 bit planes
  /// of kBlockValues/8 bytes each.
  static constexpr std::size_t kBlockValues = 256;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "fz-gpu-like";
  }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kFzGpuLike;
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
