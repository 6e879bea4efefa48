#pragma once

/// \file compressor.hpp
/// Common interface for every codec in the stack: the paper's hybrid
/// compressor (vector-LZ / optimized Huffman over an error-bounded
/// quantizer) and all evaluation baselines (generic LZ ~ nvCOMP-LZ4,
/// Deflate-like, cuSZ-like, FZ-GPU-like, FP16/FP8).
///
/// Streams are self-describing (see format.hpp): compress() appends a
/// header + payload to `out`, decompress() recovers the element count and
/// effective error bound from the stream. Compressors are stateless and
/// const-thread-safe so the block engine can fan work across a thread
/// pool.
///
/// The codec contract is two private virtuals behind a non-virtual
/// front. A codec implements do_compress() (append its stream) and
/// do_decompress() (decode one payload whose header the front has
/// already parsed and checked). The front times every call, fills
/// CompressionStats, lends the calling thread's workspace to calls that
/// bring none, and rejects streams written by another codec or sized
/// for a different output span before the codec sees them.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "compress/format.hpp"

namespace dlcomp {

class CompressionWorkspace;

/// How the error bound parameter is interpreted.
enum class EbMode : std::uint8_t {
  /// `error_bound` is an absolute bound on |x - x'| (the paper's mode for
  /// forward embedding lookups; e.g. 0.01 / 0.03 / 0.05).
  kAbsolute = 0,
  /// `error_bound` is multiplied by the value range of the buffer. Used
  /// for backward gradient compression where magnitudes vary wildly.
  kRangeRelative = 1,
};

/// Which inner codec the hybrid compressor uses.
enum class HybridChoice : std::uint8_t {
  kAuto = 0,      ///< try both, keep the smaller stream
  kVectorLz = 1,  ///< force the vector-based LZ encoder
  kHuffman = 2,   ///< force the optimized entropy encoder
};

/// Per-call compression parameters.
struct CompressParams {
  /// Error bound (see eb_mode). Ignored by lossless codecs and by the
  /// fixed-ratio FP16/FP8 baselines.
  double error_bound = 0.01;
  EbMode eb_mode = EbMode::kAbsolute;

  /// Embedding vector length in elements; the vector-LZ pattern length.
  std::size_t vector_dim = 32;

  /// Vector-LZ sliding-window size in *vectors* (the paper's extended
  /// window, Table VI sweeps {32, 64, 128, 255}).
  std::size_t lz_window_vectors = 128;

  /// Hybrid codec selection (per-table, decided by the offline analyzer).
  HybridChoice hybrid_choice = HybridChoice::kAuto;
};

/// Outcome of one compress call.
struct CompressionStats {
  std::size_t input_bytes = 0;
  std::size_t output_bytes = 0;
  double seconds = 0.0;

  [[nodiscard]] double ratio() const noexcept {
    return output_bytes == 0
               ? 0.0
               : static_cast<double>(input_bytes) /
                     static_cast<double>(output_bytes);
  }

  [[nodiscard]] double throughput_bytes_per_second() const noexcept {
    return seconds > 0.0 ? static_cast<double>(input_bytes) / seconds : 0.0;
  }
};

/// Abstract codec: a non-virtual front over do_compress/do_decompress.
/// Implementations must be stateless w.r.t. calls (const and
/// thread-safe).
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Stable identifier, e.g. "vector-lz"; used by the registry, the
  /// offline analyzer's reports, and the calibrated throughput table.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// The id this codec writes into its stream headers; decompress()
  /// accepts only streams carrying it.
  [[nodiscard]] virtual CodecId id() const noexcept = 0;

  /// True if reconstruction may differ from the input.
  [[nodiscard]] virtual bool lossy() const noexcept = 0;

  /// Compresses `input`, appending a self-describing stream to `out`.
  /// Returns stats for this call (timing measured internally). All
  /// scratch comes from `ws`, so steady-state callers allocate nothing
  /// (see workspace.hpp for ownership and threading rules); the overload
  /// without one borrows thread_local_workspace().
  CompressionStats compress(std::span<const float> input,
                            const CompressParams& params,
                            std::vector<std::byte>& out,
                            CompressionWorkspace& ws) const;
  CompressionStats compress(std::span<const float> input,
                            const CompressParams& params,
                            std::vector<std::byte>& out) const;

  /// Decompresses one stream produced by compress(). `out.size()` must
  /// equal the stream's element count (query via decompressed_count()).
  /// Throws FormatError for a malformed header and Error for another
  /// codec's stream or a mis-sized `out`. Returns wall seconds spent.
  double decompress(std::span<const std::byte> stream, std::span<float> out,
                    CompressionWorkspace& ws) const;
  double decompress(std::span<const std::byte> stream,
                    std::span<float> out) const;

 private:
  /// Appends one complete stream (header included) for `input` to `out`.
  virtual void do_compress(std::span<const float> input,
                           const CompressParams& params,
                           std::vector<std::byte>& out,
                           CompressionWorkspace& ws) const = 0;

  /// Decodes `payload` into `out`. The front has parsed `header`,
  /// checked that it carries id() and that `out` holds exactly its
  /// element count, which is non-zero.
  virtual void do_decompress(const StreamHeader& header,
                             std::span<const std::byte> payload,
                             std::span<float> out,
                             CompressionWorkspace& ws) const = 0;
};

/// Reads the element count from a stream header without decompressing.
std::size_t decompressed_count(std::span<const std::byte> stream);

/// Convenience round-trip: compress + decompress, returning recon data and
/// filled stats (used heavily by tests and benches).
struct RoundTrip {
  std::vector<float> reconstructed;
  CompressionStats compress_stats;
  double decompress_seconds = 0.0;
};
RoundTrip round_trip(const Compressor& codec, std::span<const float> input,
                     const CompressParams& params);

/// Resolves the effective absolute error bound for a buffer under the
/// given params (range-relative bounds scale by max|x| range).
double resolve_error_bound(std::span<const float> input,
                           const CompressParams& params);

}  // namespace dlcomp
