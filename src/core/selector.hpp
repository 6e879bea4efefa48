#pragma once

/// \file selector.hpp
/// Offline compressor selection (paper Sec. III-D, Algorithm 2). For each
/// table, candidate codecs are evaluated on sampled data and ranked by
/// the theoretical end-to-end speedup of Eq. (2):
///
///   speedup = 1 / ( 1/CR + B * (1/Tc + 1/Td) )
///
/// where CR is the compression ratio on the sample, B the network
/// bandwidth, and Tc/Td the codec's compression/decompression
/// throughputs. Throughputs can come from the calibrated GPU table
/// (default; see DeviceModel) or from the measured CPU timings.
///
/// With calibrated throughputs only CR is needed, so the hybrid's two
/// encoders are sized, not run: the sample is quantized once and the
/// exact vector-LZ and Huffman stream sizes come from one match scan and
/// one histogram (HybridCompressor::size_candidates). Any other
/// candidate is compressed once and never decoded. Measured mode keeps
/// a full round trip per candidate for its timings, and checks that
/// each sized stream matches the encoded one byte for byte.

#include <string>
#include <vector>

#include "comm/network_model.hpp"
#include "compress/compressor.hpp"
#include "parallel/device_model.hpp"

namespace dlcomp {

/// Eq. (2). All rates in bytes/second.
[[nodiscard]] double eq2_speedup(double compression_ratio,
                                 double network_bandwidth_bps,
                                 double compress_bps,
                                 double decompress_bps);

/// One candidate's evaluation on a sample.
struct CandidateScore {
  std::string codec;
  double compression_ratio = 0.0;
  double est_speedup = 0.0;
  double compress_bps = 0.0;    ///< throughput used in Eq. (2)
  double decompress_bps = 0.0;
  /// CPU-measured throughputs; 0 in calibrated mode, which times nothing.
  double measured_compress_bps = 0.0;
  double measured_decompress_bps = 0.0;
};

struct SelectionResult {
  std::vector<CandidateScore> candidates;  ///< in input order
  std::size_t best_index = 0;
  /// Vectors vector-LZ back-references in the sample, from the match
  /// scan that sized it (whatever the candidates).
  std::size_t lz_matches = 0;

  [[nodiscard]] const CandidateScore& best() const {
    return candidates.at(best_index);
  }
};

struct SelectorConfig {
  NetworkModel network;
  /// Use the paper-calibrated GPU throughputs in Eq. (2) (default). When
  /// false, the measured CPU throughputs are used instead -- useful for
  /// pure-CPU deployments of this library.
  bool use_calibrated_throughput = true;
};

class CompressorSelector {
 public:
  explicit CompressorSelector(SelectorConfig config) : config_(config) {}

  /// Scores every candidate codec on the sample with Eq. (2). The sample
  /// is always quantized at the resolved bound for the sizing pass (and
  /// lz_matches), so a bound that overflows int32 codes throws.
  [[nodiscard]] SelectionResult select(
      std::span<const float> sample, const CompressParams& params,
      std::span<const std::string_view> candidate_names) const;

 private:
  SelectorConfig config_;
};

}  // namespace dlcomp
