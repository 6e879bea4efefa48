#include "core/compressed_allreduce.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace dlcomp {

CompressedAllReduce::CompressedAllReduce(CompressedAllReduceConfig config)
    : config_(std::move(config)) {
  if (config_.codec != nullptr) {
    throughput_ = calibrated_throughput(config_.codec->name());
  }
}

AllReduceStats CompressedAllReduce::reduce(Communicator& comm,
                                           std::span<float> data,
                                           const std::string& phase) const {
  DLCOMP_TRACE_SPAN("allreduce");
  AllReduceStats stats;
  stats.raw_bytes = data.size_bytes();

  if (config_.codec == nullptr) {
    comm.all_reduce_sum(data, phase);
    stats.wire_bytes = data.size_bytes();
    return stats;
  }
  const auto world = static_cast<std::size_t>(comm.world());
  const PhaseNames& names = interned_phase(phase);

  // Compress the local contribution once; the same stream goes to every
  // peer (an all-gather expressed over the variable all-to-all).
  DLCOMP_TRACE_INSTANT("allreduce/compress");
  WallTimer compress_timer;
  CompressParams params;
  params.error_bound = config_.relative_eb;
  params.eb_mode = EbMode::kRangeRelative;
  std::vector<std::byte>& stream = scratch_.stream;
  stream.clear();
  config_.codec->compress(data, params, stream, scratch_.workspace);
  stats.compress_wall_seconds = compress_timer.seconds();
  stats.wire_bytes = stream.size() * (world - 1);
  stats.compression_ratio =
      static_cast<double>(stats.raw_bytes) / static_cast<double>(stream.size());

  if (config_.charge_modeled_time) {
    comm.advance_compute(names.compress,
                         config_.device.codec_seconds(
                             1, stats.raw_bytes, throughput_.compress_bps));
  }

  std::vector<std::vector<std::byte>> send(world, stream);
  const auto received = comm.all_to_all_v(send, phase);

  // Decompress every contribution (own stream included: all replicas must
  // see identical post-compression values) and reduce in rank order.
  WallTimer decompress_timer;
  scratch_.recon.resize(data.size());
  scratch_.acc.assign(data.size(), 0.0);
  std::vector<float>& recon = scratch_.recon;
  std::vector<double>& acc = scratch_.acc;
  for (std::size_t src = 0; src < world; ++src) {
    config_.codec->decompress(received[src], recon, scratch_.workspace);
    for (std::size_t i = 0; i < data.size(); ++i) {
      acc[i] += static_cast<double>(recon[i]);
    }
  }
  stats.decompress_wall_seconds = decompress_timer.seconds();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(acc[i]);
  }

  if (config_.charge_modeled_time) {
    comm.advance_compute(
        names.decompress,
        config_.device.codec_seconds(1, stats.raw_bytes * world,
                                     throughput_.decompress_bps));
  }
  return stats;
}

}  // namespace dlcomp
