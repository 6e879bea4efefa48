#pragma once

/// \file generic_lz.hpp
/// Lossless byte-granular LZ baseline, standing in for nvCOMP-LZ4 in the
/// paper's comparisons (Table V, Fig. 11). It compresses the raw IEEE-754
/// bytes of the lookup batch; as the paper observes, the random mantissa
/// bits cap its ratio far below the DLRM-specific codecs.

#include "compress/compressor.hpp"

namespace dlcomp {

class GenericLzCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "generic-lz";
  }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kGenericLz;
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
