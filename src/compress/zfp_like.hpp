#pragma once

/// \file zfp_like.hpp
/// Transform-based error-bounded baseline in the ZFP family (the paper's
/// background discusses ZFP/cuZFP as the transform-coding alternative to
/// prediction-based SZ). Fixed-accuracy mode:
///
///   1. partition values into blocks of 4,
///   2. block-normalize against the largest exponent (common-exponent
///      fixed point, precision chosen so the quantization error stays
///      within the bound),
///   3. apply a reversible integer Haar-style lifting transform,
///   4. pack the decorrelated coefficients with per-group bit widths.
///
/// On smooth scientific fields the transform concentrates energy into
/// the low-pass coefficient and the detail widths collapse; on embedding
/// batches the dimensions are independent, so detail coefficients stay
/// wide -- reproducing the paper's observation that scientific
/// compressors underperform on DLRM data.

#include "compress/compressor.hpp"

namespace dlcomp {

class ZfpLikeCompressor final : public Compressor {
 public:
  static constexpr std::size_t kBlockValues = 4;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "zfp-like";
  }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kZfpLike;
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
