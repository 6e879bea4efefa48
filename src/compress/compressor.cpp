#include "compress/compressor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "compress/chunked.hpp"
#include "compress/format.hpp"
#include "compress/workspace.hpp"

namespace dlcomp {

CompressionStats Compressor::compress(std::span<const float> input,
                                      const CompressParams& params,
                                      std::vector<std::byte>& out,
                                      CompressionWorkspace& ws) const {
  WallTimer timer;
  const std::size_t start = out.size();
  do_compress(input, params, out, ws);
  CompressionStats stats;
  stats.input_bytes = input.size_bytes();
  stats.output_bytes = out.size() - start;
  stats.seconds = timer.seconds();
  return stats;
}

CompressionStats Compressor::compress(std::span<const float> input,
                                      const CompressParams& params,
                                      std::vector<std::byte>& out) const {
  return compress(input, params, out, thread_local_workspace());
}

double Compressor::decompress(std::span<const std::byte> stream,
                              std::span<float> out,
                              CompressionWorkspace& ws) const {
  WallTimer timer;
  std::span<const std::byte> payload;
  const StreamHeader header = parse_header(stream, payload);
  DLCOMP_CHECK_MSG(header.codec == id(),
                   name() << " cannot decode a stream of codec id "
                          << static_cast<int>(header.codec));
  DLCOMP_CHECK_MSG(out.size() == header.element_count,
                   "output span size " << out.size() << " != stream count "
                                       << header.element_count);
  if (!out.empty()) do_decompress(header, payload, out, ws);
  return timer.seconds();
}

double Compressor::decompress(std::span<const std::byte> stream,
                              std::span<float> out) const {
  return decompress(stream, out, thread_local_workspace());
}

std::size_t decompressed_count(std::span<const std::byte> stream) {
  // Blocked ("DLBK") containers carry their total element count in the
  // container header; plain streams carry it in the codec header.
  if (BlockEngine::is_blocked(stream)) {
    return BlockEngine::blocked_element_count(stream);
  }
  std::span<const std::byte> payload;
  const StreamHeader h = parse_header(stream, payload);
  return static_cast<std::size_t>(h.element_count);
}

RoundTrip round_trip(const Compressor& codec, std::span<const float> input,
                     const CompressParams& params) {
  RoundTrip rt;
  std::vector<std::byte> stream;
  rt.compress_stats = codec.compress(input, params, stream);
  rt.reconstructed.resize(input.size());
  rt.decompress_seconds = codec.decompress(stream, rt.reconstructed);
  return rt;
}

double resolve_error_bound(std::span<const float> input,
                           const CompressParams& params) {
  DLCOMP_CHECK_MSG(params.error_bound > 0.0,
                   "error bound must be positive, got " << params.error_bound);
  if (params.eb_mode == EbMode::kAbsolute) return params.error_bound;

  // Range-relative: scale by the buffer's value range. An all-constant
  // buffer has zero range; fall back to a magnitude-scaled bound so
  // quantization codes stay representable (an absolute 1e-12 bound on a
  // large constant would overflow int32 codes).
  float lo = 0.0f;
  float hi = 0.0f;
  double max_abs = 0.0;
  if (!input.empty()) {
    lo = hi = input[0];
    for (const float v : input) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
    }
  }
  const double range = static_cast<double>(hi) - static_cast<double>(lo);
  const double eb = params.error_bound * range;
  if (eb > 0.0) return eb;
  return std::max(max_abs * 0x1.0p-20, 1e-12);
}

}  // namespace dlcomp
