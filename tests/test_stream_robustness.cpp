// Robustness tests: corrupted or truncated streams must never crash the
// decoder. Either a Format/Error is thrown or (for payload-bit damage
// that stays structurally valid) garbage data comes back -- but bounds
// are always checked, so no out-of-range write can occur.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compress/registry.hpp"

namespace dlcomp {
namespace {

std::vector<float> sample_payload() {
  Rng rng(2024);
  std::vector<float> data(96 * 32);
  std::vector<float> vec(32);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 32 == 0 && rng.bernoulli(0.4)) {
      for (auto& v : vec) v = static_cast<float>(rng.normal(0.0, 0.2));
    }
    data[i] = vec[i % 32];
  }
  return data;
}

/// Decompression attempt that must not crash; returns true if it threw.
bool survives(const Compressor& codec, std::span<const std::byte> stream,
              std::size_t count) {
  std::vector<float> out(count);
  try {
    codec.decompress(stream, out);
    return false;
  } catch (const Error&) {
    return true;
  }
}

class StreamRobustness : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamRobustness, RandomByteFlipsNeverCrash) {
  const Compressor& codec = get_compressor(GetParam());
  const auto input = sample_payload();
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  std::vector<std::byte> stream;
  codec.compress(input, params, stream);

  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = stream;
    // Flip 1-4 random bytes anywhere in the stream (header included, but
    // keep the magic intact so the damage reaches the codec logic).
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos =
          4 + static_cast<std::size_t>(rng.next_below(corrupted.size() - 4));
      corrupted[pos] ^= static_cast<std::byte>(1 + rng.next_below(255));
    }
    (void)survives(codec, corrupted, input.size());  // must not crash
  }
  SUCCEED();
}

TEST_P(StreamRobustness, EveryTruncationLengthIsSafe) {
  const Compressor& codec = get_compressor(GetParam());
  const auto input = sample_payload();
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  std::vector<std::byte> stream;
  codec.compress(input, params, stream);

  // Sweep a sample of truncation points including all the header bytes.
  for (std::size_t keep = 0; keep < std::min<std::size_t>(stream.size(), 40);
       ++keep) {
    auto cut = stream;
    cut.resize(keep);
    EXPECT_TRUE(survives(codec, cut, input.size())) << "kept " << keep;
  }
  for (std::size_t frac = 1; frac < 8; ++frac) {
    auto cut = stream;
    cut.resize(stream.size() * frac / 8);
    (void)survives(codec, cut, input.size());  // throw or garbage, no crash
  }
  SUCCEED();
}

TEST_P(StreamRobustness, HeaderCountTamperingRejected) {
  const Compressor& codec = get_compressor(GetParam());
  const auto input = sample_payload();
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  std::vector<std::byte> stream;
  codec.compress(input, params, stream);

  // Inflate element_count (bytes 8..15 of the header): the output span
  // check must fire before any decode walks off the end.
  auto tampered = stream;
  tampered[8] = std::byte{0xFF};
  tampered[9] = std::byte{0xFF};
  std::vector<float> out(input.size());
  EXPECT_THROW(codec.decompress(tampered, out), Error);
}

TEST_P(StreamRobustness, OtherCodecsRejectTheStream) {
  // A stream routed to the wrong decoder must fail its codec-id check
  // before any payload is read.
  const Compressor& codec = get_compressor(GetParam());
  const auto input = sample_payload();
  CompressParams params;
  params.vector_dim = 32;
  std::vector<std::byte> stream;
  codec.compress(input, params, stream);
  for (const auto name : all_compressor_names()) {
    if (name == codec.name()) continue;
    EXPECT_TRUE(survives(get_compressor(name), stream, input.size())) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, StreamRobustness,
                         ::testing::Values("huffman", "vector-lz", "hybrid",
                                           "cusz-like", "zfp-like",
                                           "fz-gpu-like", "generic-lz",
                                           "deflate-like", "fp16", "fp8"),
                         [](const auto& info) {
                           std::string tag(info.param);
                           for (auto& c : tag) {
                             if (c == '-') c = '_';
                           }
                           return tag;
                         });

}  // namespace
}  // namespace dlcomp
