// Property tests across the whole codec registry: every lossy
// error-bounded codec must honor its bound on every workload shape; every
// lossless codec must be bit-exact; streams must be self-describing.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "compress/format.hpp"
#include "compress/hybrid.hpp"
#include "compress/registry.hpp"

namespace dlcomp {
namespace {

struct Workload {
  const char* name;
  std::vector<float> data;
};

std::vector<Workload> make_workloads() {
  std::vector<Workload> loads;
  Rng rng(99);

  {
    Workload w{"gaussian", {}};
    w.data.resize(2048);
    for (auto& v : w.data) v = static_cast<float>(rng.normal(0.0, 0.15));
    loads.push_back(std::move(w));
  }
  {
    Workload w{"uniform", {}};
    w.data.resize(2048);
    for (auto& v : w.data) v = rng.uniform_float(-0.4f, 0.4f);
    loads.push_back(std::move(w));
  }
  {
    // Repeated embedding vectors (dim 32) from a small pool.
    Workload w{"repeated-vectors", {}};
    std::vector<std::vector<float>> pool(6, std::vector<float>(32));
    for (auto& vec : pool) {
      for (auto& v : vec) v = static_cast<float>(rng.normal(0.0, 0.25));
    }
    for (int b = 0; b < 64; ++b) {
      const auto& vec = pool[rng.next_below(pool.size())];
      w.data.insert(w.data.end(), vec.begin(), vec.end());
    }
    loads.push_back(std::move(w));
  }
  {
    Workload w{"constant", std::vector<float>(512, 0.125f)};
    loads.push_back(std::move(w));
  }
  {
    Workload w{"alternating-sign", {}};
    for (int i = 0; i < 1024; ++i) {
      w.data.push_back(i % 2 == 0 ? 0.3f : -0.3f);
    }
    loads.push_back(std::move(w));
  }
  {
    Workload w{"tiny", {0.1f, -0.2f, 0.3f}};
    loads.push_back(std::move(w));
  }
  return loads;
}

using CodecEb = std::tuple<std::string, double>;

class ErrorBoundedCodecs : public ::testing::TestWithParam<CodecEb> {};

TEST_P(ErrorBoundedCodecs, BoundHoldsOnEveryWorkload) {
  const auto& [name, eb] = GetParam();
  const Compressor& codec = get_compressor(name);

  for (const auto& load : make_workloads()) {
    CompressParams params;
    params.error_bound = eb;
    params.vector_dim = 32;
    const RoundTrip rt = round_trip(codec, load.data, params);
    ASSERT_EQ(rt.reconstructed.size(), load.data.size());
    for (std::size_t i = 0; i < load.data.size(); ++i) {
      ASSERT_LE(std::fabs(rt.reconstructed[i] - load.data[i]),
                eb * (1.0 + 1e-6))
          << "codec " << name << " workload " << load.name << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ErrorBoundedCodecs,
    ::testing::Combine(::testing::Values(std::string("huffman"),
                                         std::string("zfp-like"),
                                         std::string("vector-lz"),
                                         std::string("cusz-like"),
                                         std::string("fz-gpu-like"),
                                         std::string("hybrid")),
                       ::testing::Values(0.005, 0.01, 0.03, 0.05)),
    [](const auto& info) {
      std::string tag = std::get<0>(info.param) + "_eb" +
                        std::to_string(std::get<1>(info.param)).substr(2, 3);
      for (auto& c : tag) {
        if (c == '-') c = '_';
      }
      return tag;
    });

class LosslessCodecs : public ::testing::TestWithParam<std::string> {};

TEST_P(LosslessCodecs, BitExactOnEveryWorkload) {
  const Compressor& codec = get_compressor(GetParam());
  EXPECT_FALSE(codec.lossy());
  for (const auto& load : make_workloads()) {
    const RoundTrip rt = round_trip(codec, load.data, CompressParams{});
    for (std::size_t i = 0; i < load.data.size(); ++i) {
      ASSERT_EQ(rt.reconstructed[i], load.data[i]) << load.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, LosslessCodecs,
                         ::testing::Values("generic-lz", "deflate-like"));

TEST(Registry, AllNamesResolveAndMatch) {
  for (const auto name : all_compressor_names()) {
    const Compressor& codec = get_compressor(name);
    EXPECT_EQ(codec.name(), name);
    // The id a codec writes into its headers routes back to it.
    std::vector<std::byte> stream;
    codec.compress(std::vector<float>{0.5f}, CompressParams{}, stream);
    std::span<const std::byte> payload;
    EXPECT_EQ(&get_compressor(parse_header(stream, payload).codec), &codec) << name;
  }
  EXPECT_THROW(get_compressor("no-such-codec"), Error);
  EXPECT_THROW(get_compressor(static_cast<CodecId>(0xEE)), FormatError);
}

TEST(StreamFormat, SelfDescribingCount) {
  Rng rng(5);
  std::vector<float> input(777);
  for (auto& v : input) v = static_cast<float>(rng.normal(0.0, 0.1));
  for (const auto name : all_compressor_names()) {
    const Compressor& codec = get_compressor(name);
    std::vector<std::byte> stream;
    CompressParams params;
    params.vector_dim = 32;
    codec.compress(input, params, stream);
    EXPECT_EQ(decompressed_count(stream), input.size()) << name;
  }
}

TEST(StreamFormat, VectorDimBeyondHeaderFieldIsRefused) {
  // The header's vector_dim is u16. A codec that records the dim must
  // refuse one that does not fit rather than truncate it (a truncated
  // dim decodes with the wrong row shape and breaks the bound); a codec
  // that ignores the dim must be unaffected by it.
  Rng rng(8);
  std::vector<float> input(2 * 65535);
  for (auto& v : input) v = static_cast<float>(rng.normal(0.0, 0.1));
  for (const auto name : all_compressor_names()) {
    const Compressor& codec = get_compressor(name);
    CompressParams params;
    params.error_bound = 0.01;
    params.vector_dim = 65535;
    std::vector<std::byte> widest;
    codec.compress(input, params, widest);
    std::span<const std::byte> payload;
    const bool records_dim = parse_header(widest, payload).vector_dim != 0;
    if (records_dim) {
      EXPECT_EQ(parse_header(widest, payload).vector_dim, 65535) << name;
    }

    params.vector_dim = 65537;
    std::vector<std::byte> stream;
    if (records_dim) {
      EXPECT_THROW(codec.compress(input, params, stream), Error) << name;
    } else {
      codec.compress(input, params, stream);
      EXPECT_EQ(stream, widest) << name;
    }
  }
}

TEST(StreamFormat, RejectsGarbage) {
  std::vector<std::byte> garbage(64, std::byte{0x5A});
  EXPECT_THROW(decompressed_count(garbage), FormatError);
}

TEST(StreamFormat, RejectsTruncatedPayload) {
  std::vector<float> input(100, 1.0f);
  const Compressor& codec = get_compressor("huffman");
  std::vector<std::byte> stream;
  codec.compress(input, CompressParams{}, stream);
  stream.resize(stream.size() / 2);
  std::vector<float> out(100);
  EXPECT_THROW(codec.decompress(stream, out), FormatError);
}

TEST(LowPrecision, FixedRatios) {
  std::vector<float> input(4096, 1.5f);
  const Compressor& fp16 = get_compressor("fp16");
  const Compressor& fp8 = get_compressor("fp8");
  std::vector<std::byte> s16;
  std::vector<std::byte> s8;
  const auto st16 = fp16.compress(input, {}, s16);
  const auto st8 = fp8.compress(input, {}, s8);
  EXPECT_NEAR(st16.ratio(), 2.0, 0.05);
  EXPECT_NEAR(st8.ratio(), 4.0, 0.1);
}

TEST(Hybrid, ForcedChoicesRoundTrip) {
  Rng rng(6);
  std::vector<float> input(64 * 32);
  for (auto& v : input) v = static_cast<float>(rng.normal(0.0, 0.2));
  const HybridCompressor hybrid;

  for (const auto choice :
       {HybridChoice::kVectorLz, HybridChoice::kHuffman, HybridChoice::kAuto}) {
    CompressParams params;
    params.error_bound = 0.01;
    params.vector_dim = 32;
    params.hybrid_choice = choice;
    std::vector<std::byte> stream;
    hybrid.compress(input, params, stream);
    if (choice != HybridChoice::kAuto) {
      EXPECT_EQ(HybridCompressor::stream_choice(stream), choice);
    }
    std::vector<float> out(input.size());
    hybrid.decompress(stream, out);
    for (std::size_t i = 0; i < input.size(); ++i) {
      ASSERT_LE(std::fabs(out[i] - input[i]), 0.01 * (1 + 1e-9));
    }
  }
}

TEST(Hybrid, AutoPicksSmallerStream) {
  // Heavily repeated vectors: vector-LZ must win the auto selection.
  Rng rng(7);
  std::vector<float> base(32);
  for (auto& v : base) v = static_cast<float>(rng.normal(0.0, 0.3));
  std::vector<float> input;
  for (int i = 0; i < 128; ++i) {
    input.insert(input.end(), base.begin(), base.end());
  }
  const HybridCompressor hybrid;
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  params.hybrid_choice = HybridChoice::kAuto;
  std::vector<std::byte> stream;
  hybrid.compress(input, params, stream);
  EXPECT_EQ(HybridCompressor::stream_choice(stream), HybridChoice::kVectorLz);
}

/// The auto choice's definition: both candidates encoded in full, the
/// smaller stream kept, vector-LZ on a tie.
struct BothCandidates {
  std::vector<std::byte> lz;
  std::vector<std::byte> huffman;
  [[nodiscard]] const std::vector<std::byte>& smaller() const {
    return lz.size() <= huffman.size() ? lz : huffman;
  }
};

BothCandidates encode_both(std::span<const float> input,
                           CompressParams params) {
  const HybridCompressor hybrid;
  BothCandidates both;
  params.hybrid_choice = HybridChoice::kVectorLz;
  hybrid.compress(input, params, both.lz);
  params.hybrid_choice = HybridChoice::kHuffman;
  hybrid.compress(input, params, both.huffman);
  return both;
}

std::vector<std::byte> encode_auto(std::span<const float> input,
                                   CompressParams params) {
  params.hybrid_choice = HybridChoice::kAuto;
  std::vector<std::byte> stream;
  HybridCompressor().compress(input, params, stream);
  return stream;
}

TEST(Hybrid, AutoStreamEqualsEncodeBothKeepSmaller) {
  // Auto sizes both candidates without writing the loser; its stream must
  // still be byte for byte the smaller of the two full encodings.
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  Rng rng(12);

  // Vector-LZ wins: 8 distinct vectors repeated, plus a partial tail.
  std::vector<float> repeated;
  std::vector<float> bases(8 * 32);
  for (auto& v : bases) v = static_cast<float>(rng.normal(0.0, 0.3));
  for (int i = 0; i < 96; ++i) {
    repeated.insert(repeated.end(), bases.begin() + (i % 8) * 32,
                    bases.begin() + (i % 8 + 1) * 32);
  }
  repeated.insert(repeated.end(), bases.begin(), bases.begin() + 5);
  // Huffman wins: unrepeated narrow noise.
  std::vector<float> noise(64 * 32 + 7);
  for (auto& v : noise) v = static_cast<float>(rng.normal(0.0, 0.05));

  for (const auto& [input, winner] :
       {std::pair{repeated, HybridChoice::kVectorLz},
        std::pair{noise, HybridChoice::kHuffman}}) {
    const BothCandidates both = encode_both(input, params);
    const std::vector<std::byte> stream = encode_auto(input, params);
    EXPECT_EQ(HybridCompressor::stream_choice(stream), winner);
    EXPECT_EQ(stream, both.smaller());
  }

  // A tie: constant vectors make both sizes step through small counts, so
  // some vector count gives equal streams; vector-LZ must take it.
  bool tied = false;
  for (const std::size_t window : {std::size_t{1}, std::size_t{128}}) {
    for (std::size_t vectors = 1; vectors <= 256; ++vectors) {
      CompressParams tie_params = params;
      tie_params.vector_dim = 4;
      tie_params.lz_window_vectors = window;
      const std::vector<float> input(vectors * 4, 0.25f);
      const BothCandidates both = encode_both(input, tie_params);
      const std::vector<std::byte> stream = encode_auto(input, tie_params);
      ASSERT_EQ(stream, both.smaller())
          << "window " << window << " vectors " << vectors;
      if (both.lz.size() == both.huffman.size()) {
        tied = true;
        EXPECT_EQ(HybridCompressor::stream_choice(stream),
                  HybridChoice::kVectorLz);
      }
    }
  }
  EXPECT_TRUE(tied) << "no input in the sweep tied; widen it";
}

// ---------------------------------------------------- the codec contract
// The Compressor front owns stats bookkeeping and the decode-side header
// checks for every codec, so each registry codec is held to them.

class CodecContract : public ::testing::TestWithParam<std::string_view> {};

TEST_P(CodecContract, WrongOutputSizeRejected) {
  const Compressor& codec = get_compressor(GetParam());
  std::vector<float> input(64);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = 0.01f * i;
  std::vector<std::byte> stream;
  codec.compress(input, CompressParams{}, stream);
  std::vector<float> shorter(63);
  std::vector<float> longer(65);
  EXPECT_THROW(codec.decompress(stream, shorter), Error);
  EXPECT_THROW(codec.decompress(stream, longer), Error);
}

TEST_P(CodecContract, StreamsConcatenateCleanly) {
  // compress() must append, so multiple streams can share one buffer,
  // and its stats must describe exactly the bytes this call added.
  const Compressor& codec = get_compressor(GetParam());
  std::vector<float> a(128, 0.25f);
  std::vector<float> b(64, -0.5f);
  std::vector<std::byte> buffer;
  CompressParams params;
  const auto stats_a = codec.compress(a, params, buffer);
  const std::size_t first_size = buffer.size();
  EXPECT_EQ(stats_a.input_bytes, a.size() * sizeof(float));
  EXPECT_EQ(stats_a.output_bytes, first_size);
  const auto stats_b = codec.compress(b, params, buffer);
  EXPECT_EQ(stats_b.input_bytes, b.size() * sizeof(float));
  EXPECT_EQ(stats_b.output_bytes, buffer.size() - first_size);

  std::vector<float> out_a(a.size());
  std::vector<float> out_b(b.size());
  codec.decompress(std::span<const std::byte>(buffer).first(first_size), out_a);
  codec.decompress(std::span<const std::byte>(buffer).subspan(first_size), out_b);
  EXPECT_NEAR(out_a[0], 0.25f, 0.011);
  EXPECT_NEAR(out_b[0], -0.5f, 0.011);
}

INSTANTIATE_TEST_SUITE_P(Registry, CodecContract,
                         ::testing::ValuesIn(all_compressor_names().begin(),
                                             all_compressor_names().end()),
                         [](const auto& info) {
                           std::string tag(info.param);
                           for (auto& c : tag) {
                             if (c == '-') c = '_';
                           }
                           return tag;
                         });

}  // namespace
}  // namespace dlcomp
