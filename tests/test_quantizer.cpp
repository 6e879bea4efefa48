// Tests for error-bounded quantization: the error-bound invariant is the
// foundation the whole lossy stack rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "compress/kernels.hpp"
#include "compress/quantizer.hpp"
#include "support/reference_analysis.hpp"

namespace dlcomp {
namespace {

class QuantizerErrorBound : public ::testing::TestWithParam<double> {};

TEST_P(QuantizerErrorBound, ReconstructionWithinBound) {
  const double eb = GetParam();
  Rng rng(42);
  std::vector<float> input(10000);
  for (auto& v : input) v = rng.uniform_float(-5.0f, 5.0f);

  std::vector<std::int32_t> codes(input.size());
  quantize(input, eb, codes);
  std::vector<float> output(input.size());
  dequantize(codes, eb, output);

  for (std::size_t i = 0; i < input.size(); ++i) {
    ASSERT_LE(std::fabs(input[i] - output[i]), eb * (1.0 + 1e-9))
        << "element " << i << " value " << input[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, QuantizerErrorBound,
                         ::testing::Values(0.001, 0.005, 0.01, 0.02, 0.03,
                                           0.05, 0.1, 0.5));

TEST(Quantizer, ZeroMapsToZeroCode) {
  const std::vector<float> input = {0.0f, 0.004f, -0.004f};
  const auto codes = quantize(input, 0.01);
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 0);  // inside half a bin
  EXPECT_EQ(codes[2], 0);
}

TEST(Quantizer, NonPositiveBoundThrows) {
  std::vector<float> input = {1.0f};
  std::vector<std::int32_t> codes(1);
  EXPECT_THROW(quantize(input, 0.0, codes), Error);
  EXPECT_THROW(quantize(input, -0.1, codes), Error);
}

TEST(Quantizer, OverflowGuard) {
  std::vector<float> input = {1e30f};
  std::vector<std::int32_t> codes(1);
  EXPECT_THROW(quantize(input, 1e-9, codes), Error);
}

TEST(Quantizer, VectorHomogenizationUnderQuantization) {
  // Two vectors within eb of each other collapse to identical codes --
  // the paper's Vector Homogenization effect.
  const std::size_t dim = 4;
  std::vector<float> values = {0.100f, 0.200f, 0.300f, 0.400f,
                               0.104f, 0.196f, 0.304f, 0.401f};
  EXPECT_EQ(count_unique_vectors(std::span<const float>(values), dim), 2u);
  const auto codes = quantize(values, 0.01);
  EXPECT_EQ(
      count_unique_vectors(std::span<const std::int32_t>(codes), dim), 1u);
}

TEST(Quantizer, UniqueVectorCounting) {
  const std::size_t dim = 2;
  const std::vector<float> values = {1.0f, 2.0f, 1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_EQ(count_unique_vectors(std::span<const float>(values), dim), 2u);
}

TEST(UniqueRows, WordHashCountsMatchByteWiseReference) {
  // Every row size from 4 to 260 bytes, most of them not a multiple of
  // 8: rows repeat 24 random bases, and some rows differ from their base
  // in one byte (cycling through every position, the short tail word's
  // included). The word hash must count exactly what the byte-wise FNV
  // counter and a plain set count.
  Rng rng(11);
  constexpr std::size_t kRows = 96;
  constexpr std::size_t kBases = 24;
  for (std::size_t row_bytes = 4; row_bytes <= 260; ++row_bytes) {
    SCOPED_TRACE("row_bytes " + std::to_string(row_bytes));
    std::vector<unsigned char> base(kBases * row_bytes);
    for (auto& b : base) b = static_cast<unsigned char>(rng.next_u64());
    std::vector<unsigned char> data(kRows * row_bytes);
    for (std::size_t r = 0; r < kRows; ++r) {
      unsigned char* row = data.data() + r * row_bytes;
      std::copy_n(base.data() + (r * 7 % kBases) * row_bytes, row_bytes, row);
      if (r % 3 == 0) row[(r / 3) % row_bytes] ^= 1;
      if (r % 5 == 0) row[row_bytes - 1] ^= 0x80;
    }
    std::set<std::string> exact;
    for (std::size_t r = 0; r < kRows; ++r) {
      exact.emplace(reinterpret_cast<const char*>(data.data() + r * row_bytes),
                    row_bytes);
    }
    EXPECT_EQ(detail::count_unique_rows_bytes(data.data(), row_bytes, kRows,
                                              &detail::hash_row_words),
              exact.size());
    EXPECT_EQ(detail::count_unique_rows_bytes(data.data(), row_bytes, kRows,
                                              &reference::fnv1a_bytes),
              exact.size());
  }
}

TEST(UniqueRows, SymbolRowsCountLikeTheirCodes) {
  // Zigzag is a bijection, so rows of symbols are distinct exactly when
  // their codes are, whatever the row length.
  Rng rng(12);
  std::vector<float> values(64 * 33);
  for (auto& v : values) v = static_cast<float>(rng.normal(0.0, 0.02));
  const auto codes = quantize(values, 0.01);
  std::vector<std::uint32_t> symbols(values.size());
  kernels::quantize_to_symbols(values, 0.01, symbols, nullptr);
  for (const std::size_t dim : {1u, 2u, 3u, 7u, 33u, 64u}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const std::size_t want =
        count_unique_vectors(std::span<const std::int32_t>(codes), dim);
    EXPECT_EQ(
        count_unique_vectors(std::span<const std::uint32_t>(symbols), dim),
        want);
    EXPECT_EQ(detail::count_unique_rows_bytes(codes.data(),
                                              dim * sizeof(std::int32_t),
                                              codes.size() / dim,
                                              &reference::fnv1a_bytes),
              want);
  }
}

TEST(UniqueRows, MapGivesEachRowItsFirstSeenIndex) {
  // The map names every row's distinct class in first-seen order, also
  // when every hash collides and only the byte comparison tells rows
  // apart; the reused table gives the same answer on a second call.
  Rng rng(13);
  constexpr std::size_t kRows = 200;
  constexpr std::size_t kWidth = 5;
  std::vector<float> data(kRows * kWidth);
  for (std::size_t r = 0; r < kRows; ++r) {
    const auto pick = static_cast<float>(rng.next_below(17));
    for (std::size_t c = 0; c < kWidth; ++c) {
      data[r * kWidth + c] = pick + static_cast<float>(c);
    }
  }
  data[7 * kWidth] = -0.0f;  // bitwise distinct from +0.0f rows
  std::map<std::string, std::uint32_t> seen;
  std::vector<std::uint32_t> want(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::string key(reinterpret_cast<const char*>(&data[r * kWidth]),
                          kWidth * sizeof(float));
    want[r] = seen.emplace(key, static_cast<std::uint32_t>(seen.size()))
                  .first->second;
  }
  const auto constant = [](const void*, std::size_t) -> std::uint64_t {
    return 7;
  };
  std::vector<detail::DistinctRowSlot> table;
  for (const detail::RowHashFn hash :
       {detail::RowHashFn{&detail::hash_row_words}, detail::RowHashFn{constant},
        detail::RowHashFn{&detail::hash_row_words}}) {
    std::vector<std::uint32_t> map(kRows, UINT32_MAX);
    EXPECT_EQ(detail::find_distinct_rows(data.data(), kWidth * sizeof(float),
                                         kRows, hash, table, map),
              seen.size());
    EXPECT_EQ(map, want);
  }
}

TEST(ResolveErrorBound, AbsolutePassesThrough) {
  CompressParams params;
  params.error_bound = 0.02;
  params.eb_mode = EbMode::kAbsolute;
  const std::vector<float> data = {1.0f, -10.0f};
  EXPECT_DOUBLE_EQ(resolve_error_bound(data, params), 0.02);
}

TEST(ResolveErrorBound, RangeRelativeScales) {
  CompressParams params;
  params.error_bound = 0.01;
  params.eb_mode = EbMode::kRangeRelative;
  const std::vector<float> data = {-1.0f, 3.0f};  // range 4
  EXPECT_NEAR(resolve_error_bound(data, params), 0.04, 1e-12);
}

TEST(ResolveErrorBound, ConstantBufferStaysPositive) {
  CompressParams params;
  params.error_bound = 0.01;
  params.eb_mode = EbMode::kRangeRelative;
  const std::vector<float> data = {2.0f, 2.0f, 2.0f};
  EXPECT_GT(resolve_error_bound(data, params), 0.0);
}

TEST(RangeRelativeQuantization, ErrorScalesWithMagnitude) {
  // Gradient-style data: tiny values; a relative bound must not zero them
  // out wholesale the way an absolute 0.02 bound would.
  Rng rng(7);
  std::vector<float> grads(1000);
  for (auto& g : grads) g = static_cast<float>(rng.normal(0.0, 1e-3));

  CompressParams params;
  params.error_bound = 0.01;
  params.eb_mode = EbMode::kRangeRelative;
  const double eb = resolve_error_bound(grads, params);
  EXPECT_LT(eb, 1e-3);  // far below the data scale

  std::vector<std::int32_t> codes(grads.size());
  quantize(grads, eb, codes);
  std::size_t nonzero = 0;
  for (const auto c : codes) {
    if (c != 0) ++nonzero;
  }
  EXPECT_GT(nonzero, grads.size() / 2);
}

}  // namespace
}  // namespace dlcomp
