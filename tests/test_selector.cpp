// Tests for Eq. (2) and the offline compressor selector (Algorithm 2).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compress/hybrid.hpp"
#include "compress/registry.hpp"
#include "compress/vector_lz.hpp"
#include "core/selector.hpp"
#include "support/simd_tiers.hpp"

namespace dlcomp {
namespace {

TEST(Eq2, HandComputedValue) {
  // CR=10, B=4 GB/s, Tc=40 GB/s, Td=200 GB/s:
  // denom = 0.1 + 4*(1/40 + 1/200) = 0.1 + 4*0.03 = 0.22 -> 4.5454...
  const double s = eq2_speedup(10.0, 4e9, 40e9, 200e9);
  EXPECT_NEAR(s, 1.0 / 0.22, 1e-9);
}

TEST(Eq2, InfinitelyFastCodecApproachesCr) {
  const double s = eq2_speedup(8.0, 4e9, 1e18, 1e18);
  EXPECT_NEAR(s, 8.0, 1e-6);
}

TEST(Eq2, SlowCodecCanLoseToNoCompression) {
  // Codec slower than the network: speedup < 1 despite CR > 1.
  const double s = eq2_speedup(2.0, 4e9, 2e9, 2e9);
  EXPECT_LT(s, 1.0);
}

TEST(Eq2, MonotoneInCompressionRatio) {
  const double lo = eq2_speedup(2.0, 4e9, 50e9, 50e9);
  const double hi = eq2_speedup(20.0, 4e9, 50e9, 50e9);
  EXPECT_GT(hi, lo);
}

TEST(Eq2, InvalidArgsThrow) {
  EXPECT_THROW(eq2_speedup(0.0, 4e9, 1e9, 1e9), Error);
  EXPECT_THROW(eq2_speedup(2.0, 0.0, 1e9, 1e9), Error);
  EXPECT_THROW(eq2_speedup(2.0, 4e9, 0.0, 1e9), Error);
}

class SelectorFixture : public ::testing::Test {
 protected:
  static std::vector<float> repeated_batch() {
    Rng rng(1);
    std::vector<float> base(32);
    for (auto& v : base) v = static_cast<float>(rng.normal(0.0, 0.3));
    std::vector<float> out;
    for (int i = 0; i < 128; ++i) {
      out.insert(out.end(), base.begin(), base.end());
    }
    return out;
  }

  static std::vector<float> concentrated_batch() {
    Rng rng(2);
    std::vector<float> out(128 * 32);
    for (auto& v : out) v = static_cast<float>(rng.normal(0.0, 0.01));
    return out;
  }
};

TEST_F(SelectorFixture, ScoresEveryCandidate) {
  const CompressorSelector selector({});
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  const std::vector<std::string_view> candidates = {"vector-lz", "huffman"};
  const SelectionResult result =
      selector.select(repeated_batch(), params, candidates);
  ASSERT_EQ(result.candidates.size(), 2u);
  for (const auto& c : result.candidates) {
    EXPECT_GT(c.compression_ratio, 1.0) << c.codec;
    EXPECT_GT(c.est_speedup, 0.0) << c.codec;
    EXPECT_GT(c.compress_bps, 0.0) << c.codec;
  }
}

TEST_F(SelectorFixture, RepeatedVectorsFavorVectorLz) {
  const CompressorSelector selector({});
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  const std::vector<std::string_view> candidates = {"vector-lz", "huffman"};
  const SelectionResult result =
      selector.select(repeated_batch(), params, candidates);
  EXPECT_EQ(result.best().codec, "vector-lz");
}

TEST_F(SelectorFixture, ConcentratedValuesFavorHuffman) {
  // Near-constant values, all vectors distinct: entropy coding wins.
  const CompressorSelector selector({});
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  const std::vector<std::string_view> candidates = {"vector-lz", "huffman"};
  const SelectionResult result =
      selector.select(concentrated_batch(), params, candidates);
  EXPECT_EQ(result.best().codec, "huffman");
}

TEST_F(SelectorFixture, MeasuredThroughputModeWorks) {
  SelectorConfig config;
  config.use_calibrated_throughput = false;
  const CompressorSelector selector(config);
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  const std::vector<std::string_view> candidates = {"vector-lz", "huffman"};
  const SelectionResult result =
      selector.select(repeated_batch(), params, candidates);
  for (const auto& c : result.candidates) {
    EXPECT_GT(c.est_speedup, 0.0);
  }
}

/// A sample shape the sizing pass must get exactly right.
struct SizedCase {
  std::string name;
  std::vector<float> values;
  std::size_t dim;
  double eb;
};

std::vector<SizedCase> sized_cases() {
  std::vector<SizedCase> cases;
  Rng rng(9);
  std::vector<float> base(16);
  for (auto& v : base) v = static_cast<float>(rng.normal(0.0, 0.3));

  // Mostly repeated rows, and a short tail vector-LZ writes as literals.
  SizedCase ragged{"ragged tail", {}, 16, 0.01};
  for (int r = 0; r < 200; ++r) {
    if (r % 5 == 0) {
      for (auto& v : base) v = static_cast<float>(rng.normal(0.0, 0.3));
    }
    ragged.values.insert(ragged.values.end(), base.begin(), base.end());
  }
  ragged.values.resize(ragged.values.size() + 7, 0.25f);
  cases.push_back(std::move(ragged));

  SizedCase dim1{"dim 1", std::vector<float>(3001), 1, 0.01};
  for (auto& v : dim1.values) v = static_cast<float>(rng.normal(0.0, 0.05));
  cases.push_back(std::move(dim1));

  // Codes up to +-50000: symbols far past the histogram's dense limit.
  SizedCase wide{"overflow symbols", std::vector<float>(64 * 40), 64, 0.001};
  for (auto& v : wide.values) v = rng.uniform_float(-100.0f, 100.0f);
  cases.push_back(std::move(wide));

  cases.push_back({"constant", std::vector<float>(32 * 50, 0.7f), 32, 0.01});

  SizedCase dup{"all-duplicate rows", {}, 32, 0.01};
  std::vector<float> row(32);
  for (auto& v : row) v = static_cast<float>(rng.normal(0.0, 0.3));
  for (int r = 0; r < 300; ++r) {
    dup.values.insert(dup.values.end(), row.begin(), row.end());
  }
  cases.push_back(std::move(dup));
  return cases;
}

TEST(Selector, SizedRatiosEqualEncodedStreams) {
  // Calibrated selection sizes vector-LZ and Huffman without writing
  // them; its ratios must be bit for bit the ratios of the real streams,
  // on every SIMD tier. A third candidate is compressed for real.
  const std::vector<std::string_view> names = {"vector-lz", "huffman",
                                               "generic-lz"};
  for_each_available_isa([&](simd::Isa) {
    for (const SizedCase& c : sized_cases()) {
      SCOPED_TRACE(c.name);
      CompressParams params;
      params.error_bound = c.eb;
      params.vector_dim = c.dim;
      const SelectionResult result =
          CompressorSelector({}).select(c.values, params, names);
      ASSERT_EQ(result.candidates.size(), names.size());
      for (std::size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(std::string(names[i]));
        const RoundTrip rt =
            round_trip(get_compressor(names[i]), c.values, params);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      result.candidates[i].compression_ratio),
                  std::bit_cast<std::uint64_t>(rt.compress_stats.ratio()));
        EXPECT_EQ(result.candidates[i].measured_compress_bps, 0.0);
        EXPECT_EQ(result.candidates[i].measured_decompress_bps, 0.0);
      }
      EXPECT_EQ(result.lz_matches,
                VectorLzCompressor::count_matches(c.values, params));

      // Hybrid's kAuto writes the smaller of the two sized streams.
      std::vector<std::byte> hybrid;
      (void)get_compressor("hybrid").compress(c.values, params, hybrid);
      const bool lz_wins = result.candidates[0].compression_ratio >=
                           result.candidates[1].compression_ratio;
      EXPECT_EQ(HybridCompressor::stream_choice(hybrid),
                lz_wins ? HybridChoice::kVectorLz : HybridChoice::kHuffman);

      // Measured mode encodes and decodes, and checks the sizes agree.
      SelectorConfig measured;
      measured.use_calibrated_throughput = false;
      const SelectionResult timed =
          CompressorSelector(measured).select(c.values, params, names);
      for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      timed.candidates[i].compression_ratio),
                  std::bit_cast<std::uint64_t>(
                      result.candidates[i].compression_ratio));
      }
    }
  });
}

TEST_F(SelectorFixture, EmptyCandidatesThrow) {
  const CompressorSelector selector({});
  EXPECT_THROW(
      selector.select(repeated_batch(), CompressParams{}, {}), Error);
}

}  // namespace
}  // namespace dlcomp
