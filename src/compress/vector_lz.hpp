#pragma once

/// \file vector_lz.hpp
/// The paper's vector-based LZ encoder (Sec. III-D/III-E). Differences
/// from byte-granular LZ, exactly as the paper prescribes:
///
///  1. Fixed pattern length: matches are whole embedding vectors
///     (params.vector_dim quantization codes), never partial runs -- if
///     two vectors differ, the encoder leaps to the next vector instead
///     of sliding byte-by-byte.
///  2. Extended window: the window is measured in vectors
///     (params.lz_window_vectors, default 128; Table VI sweeps 32..255),
///     i.e. kilobytes of history for 32/64-element fp32 vectors.
///
/// Stage order: error-bounded quantization -> vector-granular matching ->
/// fixed-width literal packing. Repeated lookups within a batch (the
/// "unbalanced queries" phenomenon) become 1 + log2(window) bit matches.

#include "compress/compressor.hpp"

namespace dlcomp {

class VectorLzCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "vector-lz";
  }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kVectorLz;
  }
  [[nodiscard]] bool lossy() const noexcept override { return true; }

  /// What one match scan found.
  struct Plan {
    std::size_t stream_bytes = 0;  ///< exact size of the stream
    std::size_t matches = 0;       ///< vectors encoded as back-references
  };

  /// Hybrid fast path, step 1: for an input whose quantization codes and
  /// largest zigzag symbol are already known, runs the match scan once,
  /// records its tokens in `ws` and returns the exact size of the stream
  /// write_planned() would write (and the matches behind it), so a caller
  /// can compare candidates without encoding this one.
  Plan plan(std::span<const std::int32_t> codes, std::uint64_t max_symbol,
            const CompressParams& params, CompressionWorkspace& ws) const;

  /// Step 2: writes the complete vector-LZ stream for the codes the last
  /// plan() on `ws` scanned (quantized under `eb`), from its recorded
  /// tokens. Byte-identical to compress().
  void write_planned(std::span<const std::int32_t> codes, double eb,
                     std::uint64_t max_symbol, const CompressParams& params,
                     std::vector<std::byte>& out,
                     CompressionWorkspace& ws) const;

  /// Number of vector matches compress() would encode for `input`: the
  /// matches of plan() (helper for the Fig. 13 pattern analysis).
  static std::size_t count_matches(std::span<const float> input,
                                   const CompressParams& params);

 private:
  void do_compress(std::span<const float> input, const CompressParams& params,
                   std::vector<std::byte>& out,
                   CompressionWorkspace& ws) const override;
  void do_decompress(const StreamHeader& header,
                     std::span<const std::byte> payload, std::span<float> out,
                     CompressionWorkspace& ws) const override;
};

}  // namespace dlcomp
