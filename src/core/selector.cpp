#include "core/selector.hpp"

#include <string>

#include "common/error.hpp"
#include "compress/hybrid.hpp"
#include "compress/registry.hpp"
#include "compress/workspace.hpp"

namespace dlcomp {

double eq2_speedup(double compression_ratio, double network_bandwidth_bps,
                   double compress_bps, double decompress_bps) {
  DLCOMP_CHECK(compression_ratio > 0.0);
  DLCOMP_CHECK(network_bandwidth_bps > 0.0);
  DLCOMP_CHECK(compress_bps > 0.0 && decompress_bps > 0.0);
  const double denom = 1.0 / compression_ratio +
                       network_bandwidth_bps *
                           (1.0 / compress_bps + 1.0 / decompress_bps);
  return 1.0 / denom;
}

SelectionResult CompressorSelector::select(
    std::span<const float> sample, const CompressParams& params,
    std::span<const std::string_view> candidate_names) const {
  DLCOMP_CHECK_MSG(!candidate_names.empty(), "no candidate codecs supplied");
  DLCOMP_CHECK_MSG(!sample.empty(), "empty sample");

  SelectionResult result;
  result.candidates.reserve(candidate_names.size());

  CompressionWorkspace& ws = thread_local_workspace();
  const HybridSizing sized = HybridCompressor::size_candidates(
      sample, resolve_error_bound(sample, params), params, ws);
  result.lz_matches = sized.lz_matches;

  std::vector<std::byte> stream;
  for (const auto name : candidate_names) {
    const Compressor& codec = get_compressor(name);
    std::size_t sized_bytes = 0;  // 0: not one of the sized encoders
    if (name == "vector-lz") sized_bytes = sized.vector_lz_bytes;
    if (name == "huffman") sized_bytes = sized.huffman_bytes;

    CandidateScore score;
    score.codec = std::string(name);
    CompressionStats stats;
    if (config_.use_calibrated_throughput) {
      stats.input_bytes = sample.size_bytes();
      stats.output_bytes = sized_bytes;
      if (sized_bytes == 0) {
        stream.clear();
        stats = codec.compress(sample, params, stream, ws);
      }
      const CodecThroughput calibrated = calibrated_throughput(name);
      score.compress_bps = calibrated.compress_bps;
      score.decompress_bps = calibrated.decompress_bps;
    } else {
      const RoundTrip rt = round_trip(codec, sample, params);
      stats = rt.compress_stats;
      DLCOMP_CHECK_MSG(sized_bytes == 0 || stats.output_bytes == sized_bytes,
                       name << " sized " << sized_bytes << " bytes, encoded "
                            << stats.output_bytes);
      score.measured_compress_bps = stats.throughput_bytes_per_second();
      score.measured_decompress_bps =
          rt.decompress_seconds > 0.0
              ? static_cast<double>(stats.input_bytes) / rt.decompress_seconds
              : 0.0;
      score.compress_bps = score.measured_compress_bps;
      score.decompress_bps = score.measured_decompress_bps;
      // Degenerate timing measurements (too fast to time) fall back to
      // the calibrated values so Eq. (2) stays well defined.
      if (score.compress_bps <= 0.0 || score.decompress_bps <= 0.0) {
        const CodecThroughput calibrated = calibrated_throughput(name);
        score.compress_bps = calibrated.compress_bps;
        score.decompress_bps = calibrated.decompress_bps;
      }
    }
    score.compression_ratio = stats.ratio();

    score.est_speedup =
        eq2_speedup(score.compression_ratio,
                    config_.network.bandwidth_bytes_per_second,
                    score.compress_bps, score.decompress_bps);
    result.candidates.push_back(score);
  }

  for (std::size_t i = 1; i < result.candidates.size(); ++i) {
    if (result.candidates[i].est_speedup >
        result.candidates[result.best_index].est_speedup) {
      result.best_index = i;
    }
  }
  return result;
}

}  // namespace dlcomp
