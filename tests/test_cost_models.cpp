// Tests for the device, compute and network cost models that translate
// real payload volumes into simulated GPU-cluster time.

#include <gtest/gtest.h>

#include <string>

#include "comm/network_model.hpp"
#include "compress/registry.hpp"
#include "core/compute_model.hpp"
#include "parallel/device_model.hpp"

namespace dlcomp {
namespace {

TEST(DeviceModelTest, CodecTimeScalesWithLaunchesAndBytes) {
  DeviceModel device;
  device.kernel_launch_seconds = 1e-5;
  const double one_launch = device.codec_seconds(1, 1 << 20, 50e9);
  const double ten_launches = device.codec_seconds(10, 1 << 20, 50e9);
  EXPECT_NEAR(ten_launches - one_launch, 9e-5, 1e-12);

  const double double_bytes = device.codec_seconds(1, 2 << 20, 50e9);
  EXPECT_GT(double_bytes, one_launch);
}

TEST(DeviceModelTest, CopySecondsLinear) {
  DeviceModel device;
  device.d2d_copy_bytes_per_second = 100e9;
  EXPECT_DOUBLE_EQ(device.copy_seconds(100'000'000'000ULL), 1.0);
  EXPECT_DOUBLE_EQ(device.copy_seconds(0), 0.0);
}

TEST(CalibratedThroughput, PaperQuotedValues) {
  // The Fig. 11 quoted throughputs must be wired in exactly.
  const CodecThroughput vlz = calibrated_throughput("vector-lz");
  EXPECT_DOUBLE_EQ(vlz.compress_bps, 40.5e9);
  EXPECT_DOUBLE_EQ(vlz.decompress_bps, 205.4e9);
  const CodecThroughput huff = calibrated_throughput("huffman");
  EXPECT_DOUBLE_EQ(huff.compress_bps, 78.4e9);
  EXPECT_DOUBLE_EQ(huff.decompress_bps, 38.9e9);
  const CodecThroughput fz = calibrated_throughput("fz-gpu-like");
  EXPECT_DOUBLE_EQ(fz.compress_bps, 136e9);
}

TEST(CalibratedThroughput, EveryRegisteredCodecHasPositiveRates) {
  for (const auto name : all_compressor_names()) {
    const CodecThroughput t =
        calibrated_throughput(name);
    EXPECT_GT(t.compress_bps, 0.0) << name;
    EXPECT_GT(t.decompress_bps, 0.0) << name;
  }
  // Unknown codecs get a sane default rather than zero.
  const CodecThroughput unknown = calibrated_throughput("no-such-codec");
  EXPECT_GT(unknown.compress_bps, 0.0);
}

TEST(ComputeModelTest, MlpTimeScalesWithWorkload) {
  ComputeModel compute;
  const std::vector<std::size_t> dims = {13, 64, 32};
  const double small = compute.mlp_seconds(32, dims);
  const double large = compute.mlp_seconds(320, dims);
  EXPECT_GT(large, small);
  // Ten times the batch is ~ten times the flops (plus fixed overhead).
  EXPECT_NEAR((large - compute.kernel_overhead_seconds) /
                  (small - compute.kernel_overhead_seconds),
              10.0, 1e-9);
}

TEST(ComputeModelTest, InteractionQuadraticInFeatures) {
  ComputeModel compute;
  const double few = compute.interaction_seconds(64, 10, 32) -
                     compute.kernel_overhead_seconds;
  const double many = compute.interaction_seconds(64, 21, 32) -
                      compute.kernel_overhead_seconds;
  EXPECT_NEAR(many / few, (22.0 * 22.0) / (11.0 * 11.0), 1e-9);
}

TEST(ComputeModelTest, MemoryBoundUsesHbmRate) {
  ComputeModel compute;
  compute.hbm_bytes_per_second = 1e12;
  compute.kernel_overhead_seconds = 0.0;
  // Read + write: 2x the bytes over the pipe.
  EXPECT_DOUBLE_EQ(compute.memory_bound_seconds(500'000'000'000ULL), 1.0);
}

TEST(NetworkModelDetail, AllToAllLatencyPlusVolume) {
  NetworkModel net;
  net.bandwidth_bytes_per_second = 4e9;
  net.latency_seconds = 2e-6;
  EXPECT_DOUBLE_EQ(net.alltoall_seconds(4'000'000, 8),
                   2e-6 + 4e6 / 4e9);
  // Single rank: free.
  EXPECT_DOUBLE_EQ(net.alltoall_seconds(4'000'000, 1), 0.0);
}

TEST(NetworkModelDetail, AllReduceUsesFastFabric) {
  NetworkModel net;
  // Dense all-reduce must ride the NVLink-class path, far faster than an
  // equal-volume all-to-all over the cross-node fabric.
  const double ar = net.allreduce_seconds(10 << 20, 8);
  const double a2a = net.alltoall_seconds(10 << 20, 8);
  EXPECT_LT(ar, a2a);
}

}  // namespace
}  // namespace dlcomp
