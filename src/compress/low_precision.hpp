#pragma once

/// \file low_precision.hpp
/// Fixed-ratio low-precision baselines (the paper's FP16 and FP8
/// comparison points, Sec. IV-B). These are "compressors" with a constant
/// 2x / 4x payload ratio; their error is relative to magnitude, not
/// absolutely bounded, which is exactly the coarse-granularity limitation
/// the paper contrasts against.

#include "compress/compressor.hpp"

namespace dlcomp {

class Fp16Compressor final : public Compressor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "fp16"; }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kFp16;
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

class Fp8Compressor final : public Compressor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "fp8"; }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kFp8;
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
