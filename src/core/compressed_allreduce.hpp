#pragma once

/// \file compressed_allreduce.hpp
/// Compression-assisted all-reduce for the dense (MLP) gradients -- the
/// direction the paper's related work explores (Zhou et al.: compression
/// assisted allgather/reduce-scatter) and its conclusion motivates: once
/// the embedding all-to-all is compressed, the dense all-reduce becomes
/// the next wire bottleneck.
///
/// Scheme: every rank compresses its local buffer once (range-relative
/// bound), the compressed payloads move via all-gather (realized over the
/// variable all-to-all), and each rank decompresses and reduces locally.
/// Wire volume is (P-1) x compressed versus the ring's ~2 x raw, so the
/// scheme wins when the compression ratio exceeds ~(P-1)/2 -- the bench
/// bench_ablation_compressed_allreduce sweeps the crossover.
///
/// Error: each rank's contribution carries at most `eb` absolute error
/// (resolved range-relative), so the reduced sum deviates by at most
/// P * eb per element. Determinism: every rank decompresses the same P
/// streams and reduces in rank order, so replicas stay bitwise identical.

#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "compress/compressor.hpp"
#include "compress/workspace.hpp"
#include "parallel/device_model.hpp"

namespace dlcomp {

struct CompressedAllReduceConfig {
  /// Codec for the gradient payloads; nullptr falls back to the plain
  /// ring all-reduce (useful for A/B runs through one call site).
  const Compressor* codec = nullptr;
  /// Range-relative bound applied to each rank's buffer.
  double relative_eb = 0.01;
  DeviceModel device;
  bool charge_modeled_time = true;
};

struct AllReduceStats {
  std::size_t raw_bytes = 0;       ///< buffer size
  std::size_t wire_bytes = 0;      ///< compressed bytes this rank sent
  double compression_ratio = 1.0;
  double compress_wall_seconds = 0.0;
  double decompress_wall_seconds = 0.0;
};

class CompressedAllReduce {
 public:
  explicit CompressedAllReduce(CompressedAllReduceConfig config);

  /// In-place sum across ranks (like Communicator::all_reduce_sum but
  /// with lossy-compressed transport). All ranks must pass equal sizes.
  /// Reuses instance-held scratch: one reduce at a time per instance
  /// (the SPMD pattern gives each rank its own).
  AllReduceStats reduce(Communicator& comm, std::span<float> data,
                        const std::string& phase) const;

 private:
  CompressedAllReduceConfig config_;
  /// Modelled codec throughputs: the calibrated table entry for the
  /// codec (unused when the codec is null).
  CodecThroughput throughput_;
  /// Reused across reduce() calls (logically const, never observable).
  struct Scratch {
    CompressionWorkspace workspace;
    std::vector<std::byte> stream;
    std::vector<float> recon;
    std::vector<double> acc;
  };
  mutable Scratch scratch_;
};

}  // namespace dlcomp
