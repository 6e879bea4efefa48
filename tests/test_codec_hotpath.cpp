// Differential tests for the hot-path codec overhaul: the table-driven
// Huffman encode/decode, the fused quantize/Lorenzo kernels and the
// workspace plumbing must be byte-identical to the preserved reference
// implementations on randomized and adversarial inputs, and the
// steady-state paths must stop touching the heap after warm-up.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "common/rng.hpp"
#include "compress/huffman_coding.hpp"
#include "compress/kernels.hpp"
#include "compress/quantizer.hpp"
#include "compress/registry.hpp"
#include "compress/workspace.hpp"
#include "core/compressed_alltoall.hpp"
#include "parallel/thread_pool.hpp"
#include "support/reference_kernels.hpp"
#include "support/simd_tiers.hpp"

namespace dlcomp {
namespace {

// ---------------------------------------------------------------- Huffman

/// Fast encode vs per-symbol reference encode, LUT decode vs per-bit
/// canonical decode, all four combinations cross-checked.
void check_huffman_differential(const std::vector<std::uint32_t>& symbols) {
  const HuffmanCodec codec = HuffmanCodec::build(symbols);

  BitWriter fast_writer;
  codec.encode(symbols, fast_writer);
  const auto fast_bits = fast_writer.finish();

  BitWriter ref_writer;
  codec.encode_reference(symbols, ref_writer);
  const auto ref_bits = ref_writer.finish();
  ASSERT_EQ(fast_bits, ref_bits) << "word-batched encode changed the stream";

  std::vector<std::byte> table;
  codec.serialize_table(table);
  ByteReader table_reader(table);
  const HuffmanCodec decoder = HuffmanCodec::deserialize_table(table_reader);

  std::vector<std::uint32_t> lut_out(symbols.size());
  BitReader lut_reader(fast_bits);
  decoder.decode(lut_reader, lut_out);
  EXPECT_EQ(lut_out, symbols) << "LUT decode mismatch";

  std::vector<std::uint32_t> ref_out(symbols.size());
  BitReader ref_reader(fast_bits);
  decoder.decode_reference(ref_reader, ref_out);
  EXPECT_EQ(ref_out, symbols) << "reference decode mismatch";
  EXPECT_EQ(lut_reader.bit_position(), ref_reader.bit_position());
}

TEST(HuffmanDifferential, RandomSkewedAlphabets) {
  Rng rng(11);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 1000 + static_cast<std::size_t>(rng.next_below(20000));
    const std::uint32_t alphabet =
        1 + static_cast<std::uint32_t>(rng.next_below(2000));
    std::vector<std::uint32_t> symbols(n);
    for (auto& s : symbols) {
      // Squared draw skews mass toward small symbols (realistic zigzag).
      const double u = rng.next_double();
      s = static_cast<std::uint32_t>(u * u * alphabet);
    }
    check_huffman_differential(symbols);
  }
}

TEST(HuffmanDifferential, SingleSymbolAlphabet) {
  check_huffman_differential(std::vector<std::uint32_t>(257, 42u));
}

TEST(HuffmanDifferential, SparseHugeSymbols) {
  // Arbitrary u32 symbol values force the map-fallback encoder.
  std::vector<std::uint32_t> symbols;
  Rng rng(12);
  for (int i = 0; i < 4000; ++i) {
    static const std::uint32_t pool[] = {0u, ~0u, 1u << 31, 1u << 20,
                                         123456789u, 7u};
    symbols.push_back(pool[rng.next_below(6)]);
  }
  check_huffman_differential(symbols);
}

TEST(HuffmanDifferential, MaxLengthCodesExerciseSlowPath) {
  // Fibonacci-ish frequencies produce one code per depth level, driving
  // code lengths far beyond the 12-bit LUT (and, with enough symbols,
  // into the 32-bit length limiter's flattening loop).
  std::vector<std::uint32_t> symbols;
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (std::uint32_t sym = 0; sym < 40; ++sym) {
    for (std::uint64_t k = 0; k < a && symbols.size() < 600000; ++k) {
      symbols.push_back(sym);
    }
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const HuffmanCodec codec = HuffmanCodec::build(symbols);
  EXPECT_GT(codec.max_code_length(), HuffmanCodec::kMaxLutBits);
  check_huffman_differential(symbols);
}

TEST(HuffmanDifferential, TwoSymbolTail) {
  // Streams whose final code straddles the last byte: pad counts so the
  // tail (non-word-aligned) decode path runs.
  for (std::size_t n = 1; n < 70; ++n) {
    std::vector<std::uint32_t> symbols;
    for (std::size_t i = 0; i < n; ++i) {
      symbols.push_back(static_cast<std::uint32_t>(i % 3));
    }
    check_huffman_differential(symbols);
  }
}

TEST(HuffmanExactSize, AnalyticSizesMatchSerialization) {
  Rng rng(13);
  std::vector<std::uint32_t> symbols(5000);
  for (auto& s : symbols) {
    s = static_cast<std::uint32_t>(rng.next_below(300));
  }
  const HuffmanCodec codec = HuffmanCodec::build(symbols);

  std::vector<std::byte> table;
  codec.serialize_table(table);
  EXPECT_EQ(table.size(), codec.serialized_table_bytes());

  BitWriter writer;
  codec.encode(symbols, writer);
  EXPECT_EQ(writer.bit_count(), codec.build_payload_bits());
}

// ---------------------------------------------------------------- kernels

std::vector<float> random_input(std::size_t n, std::uint64_t seed,
                                float scale) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (auto& v : out) v = static_cast<float>(rng.normal(0.0, scale));
  return out;
}

TEST(QuantizeDifferential, FusedMatchesReferenceBitExactly) {
  for (const double eb : {0.001, 0.01, 0.05, 0.7}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const auto input = random_input(10001, seed, 0.3f);
      std::vector<std::int32_t> ref_codes(input.size());
      reference::quantize(input, eb, ref_codes);

      std::vector<std::int32_t> fused_codes(input.size());
      const std::uint64_t max_symbol =
          kernels::quantize_to_codes(input, eb, fused_codes);
      EXPECT_EQ(fused_codes, ref_codes);

      std::uint64_t want_max = 0;
      for (const auto c : ref_codes) {
        want_max = std::max(want_max, zigzag_encode(c));
      }
      EXPECT_EQ(max_symbol, want_max);

      SymbolHistogram hist;
      std::vector<std::uint32_t> symbols(input.size());
      kernels::quantize_to_symbols(input, eb, symbols, &hist);
      std::uint64_t histogram_mass = 0;
      for (std::uint32_t s = 0; s < hist.dense_used; ++s) {
        histogram_mass += hist.dense[s];
      }
      for (const auto& [sym, freq] : hist.overflow) histogram_mass += freq;
      EXPECT_EQ(histogram_mass, symbols.size());
      for (std::size_t i = 0; i < symbols.size(); ++i) {
        ASSERT_EQ(symbols[i],
                  static_cast<std::uint32_t>(zigzag_encode(ref_codes[i])));
      }

      std::vector<float> ref_out(input.size());
      reference::dequantize(ref_codes, eb, ref_out);
      std::vector<float> fused_out(input.size());
      kernels::dequantize_codes(fused_codes, eb, fused_out);
      EXPECT_EQ(std::memcmp(ref_out.data(), fused_out.data(),
                            ref_out.size() * sizeof(float)),
                0);
      kernels::dequantize_symbols(symbols, eb, fused_out);
      EXPECT_EQ(std::memcmp(ref_out.data(), fused_out.data(),
                            ref_out.size() * sizeof(float)),
                0);
    }
  }
}

TEST(QuantizeDifferential, OverflowStillThrows) {
  std::vector<float> input = {1e30f};
  std::vector<std::int32_t> codes(1);
  EXPECT_THROW(kernels::quantize_to_codes(input, 1e-9, codes), Error);
  std::vector<std::uint32_t> symbols(1);
  EXPECT_THROW(kernels::quantize_to_symbols(input, 1e-9, symbols, nullptr),
               Error);
}

TEST(QuantizeDifferential, NonFiniteInputsThrowLikeTheReference) {
  // NaN hides from min/max, so the hoisted range check needs its own
  // probe; the reference rejected NaN per element and the fused path
  // must too (a silent cast would be UB). Inf fails the extrema check.
  const float bad[] = {std::nanf(""), std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const float v : bad) {
    // Bad value first, middle, and last — the probe must catch all.
    for (const std::size_t at : {0u, 2u, 4u}) {
      std::vector<float> input(5, 0.25f);
      input[at] = v;
      std::vector<std::int32_t> ref_codes(input.size());
      EXPECT_THROW(reference::quantize(input, 0.01, ref_codes), Error);
      std::vector<std::int32_t> codes(input.size());
      EXPECT_THROW(kernels::quantize_to_codes(input, 0.01, codes), Error);
      std::vector<std::uint32_t> symbols(input.size());
      EXPECT_THROW(
          kernels::quantize_to_symbols(input, 0.01, symbols, nullptr), Error);
    }
  }
}

TEST(HuffmanDifferential, EmptyCodecDecodeThrowsCleanly) {
  // Workspace-resident codecs start unbuilt; decoding through one must
  // be a FormatError, not an out-of-bounds LUT read.
  HuffmanCodec codec;
  const std::vector<std::byte> bytes(16, std::byte{0xAB});
  BitReader reader(bytes);
  std::vector<std::uint32_t> out(4);
  EXPECT_THROW(codec.decode(reader, out), FormatError);
  BitReader ref_reader(bytes);
  EXPECT_THROW(codec.decode_reference(ref_reader, out), FormatError);
}

TEST(HuffmanExactSize, PayloadBitsUseOriginalFrequenciesAfterFlattening) {
  // Fibonacci frequencies up to ~2^60 force code lengths far beyond the
  // 32-bit cap, so the builder flattens the histogram; the exact-size
  // accounting must still charge length x *original* frequency (what
  // encode() emits), not the flattened counts.
  std::unordered_map<std::uint32_t, std::uint64_t> histogram;
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (std::uint32_t sym = 0; sym < 80; ++sym) {
    histogram[sym] = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const HuffmanCodec codec = HuffmanCodec::build_from_histogram(histogram);
  EXPECT_EQ(codec.max_code_length(), 32u);  // the flattener ran

  // Recover per-symbol code lengths from the serialized canonical table.
  std::vector<std::byte> table;
  codec.serialize_table(table);
  std::size_t pos = 0;
  const std::uint64_t n = read_varint(table, pos);
  ASSERT_EQ(n, histogram.size());
  std::vector<std::uint32_t> syms(n);
  for (auto& s : syms) s = static_cast<std::uint32_t>(read_varint(table, pos));
  std::uint64_t expected_bits = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto len = std::to_integer<std::uint8_t>(table[pos + i]);
    expected_bits += histogram.at(syms[i]) * len;
  }
  EXPECT_EQ(codec.build_payload_bits(), expected_bits);
}

TEST(LorenzoDifferential, FusedMatchesReferenceBitExactly) {
  // Dims chosen to exercise tail rows (n % dim != 0), single-column
  // grids, dims larger than the buffer, and the paired-row interleave
  // (which needs dim > 8 to engage).
  const std::size_t sizes[] = {1, 5, 31, 32, 33, 1024, 4097, 9999};
  const std::size_t dims[] = {1, 3, 7, 16, 32, 64, 20000};
  for (const std::size_t n : sizes) {
    for (const std::size_t dim : dims) {
      const auto input = random_input(n, 1000 + n + dim, 0.25f);
      const double eb = 0.01;

      std::vector<std::int32_t> ref_codes(n);
      std::vector<float> ref_recon(n);
      reference::lorenzo_encode(input, dim, eb, ref_codes, ref_recon);

      SymbolHistogram hist;
      std::vector<std::uint32_t> symbols(n);
      std::vector<float> recon(n);
      kernels::lorenzo_encode_fused(input, dim, eb, recon, symbols, &hist);

      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(symbols[i],
                  static_cast<std::uint32_t>(zigzag_encode(ref_codes[i])))
            << "n=" << n << " dim=" << dim << " i=" << i;
      }
      ASSERT_EQ(std::memcmp(recon.data(), ref_recon.data(),
                            n * sizeof(float)),
                0)
          << "n=" << n << " dim=" << dim;

      std::vector<float> ref_out(n);
      reference::lorenzo_decode(ref_codes, dim, eb, ref_out);
      std::vector<float> fused_out(n);
      kernels::lorenzo_decode_fused(symbols, dim, eb, fused_out);
      ASSERT_EQ(std::memcmp(fused_out.data(), ref_out.data(),
                            n * sizeof(float)),
                0)
          << "n=" << n << " dim=" << dim;
    }
  }
}

// ----------------------------------------------------------- SIMD dispatch

TEST(SimdDifferential, QuantizeEdgeShapesMatchReference) {
  auto check = [](const std::vector<float>& input, double eb,
                  const std::string& what) {
    const std::size_t n = input.size();
    std::vector<std::int32_t> ref_codes(n);
    reference::quantize(input, eb, ref_codes);

    std::vector<std::int32_t> codes(n);
    const std::uint64_t max_symbol =
        kernels::quantize_to_codes(input, eb, codes);
    ASSERT_EQ(codes, ref_codes) << what;
    std::uint64_t want_max = 0;
    for (const auto c : ref_codes) {
      want_max = std::max(want_max, zigzag_encode(c));
    }
    ASSERT_EQ(max_symbol, want_max) << what;

    SymbolHistogram hist;
    std::vector<std::uint32_t> symbols(n);
    kernels::quantize_to_symbols(input, eb, symbols, &hist);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(symbols[i],
                static_cast<std::uint32_t>(zigzag_encode(ref_codes[i])))
          << what << " i=" << i;
    }

    std::vector<float> ref_out(n);
    reference::dequantize(ref_codes, eb, ref_out);
    std::vector<float> out(n);
    kernels::dequantize_codes(codes, eb, out);
    ASSERT_EQ(std::memcmp(out.data(), ref_out.data(), n * sizeof(float)), 0)
        << what;
    kernels::dequantize_symbols(symbols, eb, out);
    ASSERT_EQ(std::memcmp(out.data(), ref_out.data(), n * sizeof(float)), 0)
        << what;
  };

  // Exact ties and signed zeros: with eb 0.5 the step is 1.0, so k + 0.5
  // must round away from zero on every lane. The five-value cycle is
  // coprime with 16, so over five 16-lane blocks each value lands on
  // every lane position, and the odd tail runs the remainder loop on
  // them too.
  std::vector<float> ties(5 * 16 + 7);
  for (std::size_t i = 0; i < ties.size(); ++i) {
    const float k = static_cast<float>(i / 5);
    const float cycle[] = {k + 0.5f, -(k + 0.5f), 0.0f, -0.0f, -0.5f};
    ties[i] = cycle[i % 5];
  }

  // Sizes straddle the 8- and 16-lane boundaries so every vector tail
  // path runs at least once under each tier.
  const std::size_t sizes[] = {1, 7, 8, 9, 15, 16, 17, 31, 33, 1000, 4097};
  for_each_available_isa([&](simd::Isa isa) {
    const std::string tier(simd::isa_name(isa));
    for (const std::size_t n : sizes) {
      check(random_input(n, 7000 + n, 0.3f), 0.01,
            tier + " n=" + std::to_string(n));
    }
    check(ties, 0.5, tier + " ties");
  });
}

TEST(SimdDifferential, LorenzoEdgeShapesMatchReference) {
  // dim >= 8 with n > 4*dim engages the staggered vector path; dim 1,
  // dims below the lane width, and tail rows (n % dim != 0) must take
  // the scalar ramps and fallbacks and still match the reference.
  const std::size_t sizes[] = {1, 31, 257, 4097, 9999};
  const std::size_t dims[] = {1, 7, 8, 16, 33, 64};
  for_each_available_isa([&](simd::Isa isa) {
    for (const std::size_t n : sizes) {
      for (const std::size_t dim : dims) {
        const auto input = random_input(n, 8000 + n + dim, 0.25f);
        const double eb = 0.01;

        std::vector<std::int32_t> ref_codes(n);
        std::vector<float> ref_recon(n);
        reference::lorenzo_encode(input, dim, eb, ref_codes, ref_recon);

        SymbolHistogram hist;
        std::vector<std::uint32_t> symbols(n);
        std::vector<float> recon(n);
        kernels::lorenzo_encode_fused(input, dim, eb, recon, symbols, &hist);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(symbols[i],
                    static_cast<std::uint32_t>(zigzag_encode(ref_codes[i])))
              << simd::isa_name(isa) << " n=" << n << " dim=" << dim
              << " i=" << i;
        }
        ASSERT_EQ(
            std::memcmp(recon.data(), ref_recon.data(), n * sizeof(float)),
            0)
            << simd::isa_name(isa) << " n=" << n << " dim=" << dim;

        std::vector<float> ref_out(n);
        reference::lorenzo_decode(ref_codes, dim, eb, ref_out);
        std::vector<float> out(n);
        kernels::lorenzo_decode_fused(symbols, dim, eb, out);
        ASSERT_EQ(std::memcmp(out.data(), ref_out.data(), n * sizeof(float)),
                  0)
            << simd::isa_name(isa) << " n=" << n << " dim=" << dim;
      }
    }
  });
}

TEST(SimdDifferential, NearLimitCodesMatchReference) {
  // Codes within a hair of INT32_MAX: the widest quantize products and
  // (after zigzag) maximum-length symbols, still inside the reference's
  // defined domain so it stays the oracle.
  const double eb = 0.5;  // step 1.0: codes == half-away-rounded values
  std::vector<float> input(4099);
  Rng rng(771);
  for (auto& v : input) {
    const double mag = 2.0e9 * rng.next_double();
    v = static_cast<float>(rng.next_below(2) != 0 ? mag : -mag);
  }
  std::vector<std::int32_t> ref_codes(input.size());
  reference::quantize(input, eb, ref_codes);
  std::vector<float> ref_out(input.size());
  reference::dequantize(ref_codes, eb, ref_out);
  for_each_available_isa([&](simd::Isa isa) {
    std::vector<std::int32_t> codes(input.size());
    kernels::quantize_to_codes(input, eb, codes);
    ASSERT_EQ(codes, ref_codes) << simd::isa_name(isa);
    std::vector<float> out(input.size());
    kernels::dequantize_codes(codes, eb, out);
    ASSERT_EQ(std::memcmp(out.data(), ref_out.data(),
                          out.size() * sizeof(float)),
              0)
        << simd::isa_name(isa);
  });
}

TEST(SimdDifferential, OverflowResidualLorenzoMatchesScalarDispatch) {
  // Sign-alternating magnitudes make Lorenzo residuals exceed int32,
  // tripping the vector safety mask whose per-lane fallback must agree
  // bit-for-bit with the scalar dispatch kernel. (The reference's
  // unclamped cast is not defined there, so the scalar dispatch path is
  // the oracle instead.)
  const double eb = 0.5;
  const std::size_t n = 4096;
  const std::size_t dim = 32;
  std::vector<float> input(n);
  Rng rng(772);
  for (auto& v : input) {
    const double mag = 1.8e9 * rng.next_double();
    v = static_cast<float>(rng.next_below(2) != 0 ? mag : -mag);
  }
  ASSERT_TRUE(kernels::force_isa_for_testing(simd::Isa::kScalar));
  SymbolHistogram hist;
  std::vector<std::uint32_t> want_symbols(n);
  std::vector<float> want_recon(n);
  kernels::lorenzo_encode_fused(input, dim, eb, want_recon, want_symbols,
                                &hist);
  std::vector<float> want_out(n);
  kernels::lorenzo_decode_fused(want_symbols, dim, eb, want_out);
  for_each_available_isa([&](simd::Isa isa) {
    SymbolHistogram h;
    std::vector<std::uint32_t> symbols(n);
    std::vector<float> recon(n);
    kernels::lorenzo_encode_fused(input, dim, eb, recon, symbols, &h);
    ASSERT_EQ(symbols, want_symbols) << simd::isa_name(isa);
    ASSERT_EQ(
        std::memcmp(recon.data(), want_recon.data(), n * sizeof(float)), 0)
        << simd::isa_name(isa);
    std::vector<float> out(n);
    kernels::lorenzo_decode_fused(symbols, dim, eb, out);
    ASSERT_EQ(std::memcmp(out.data(), want_out.data(), n * sizeof(float)),
              0)
        << simd::isa_name(isa);
  });
}

TEST(SimdDifferential, NaNStillThrowsUnderEveryIsa) {
  for_each_available_isa([&](simd::Isa isa) {
    std::vector<float> input(100, 0.25f);
    input[37] = std::nanf("");
    std::vector<std::int32_t> codes(input.size());
    EXPECT_THROW(kernels::quantize_to_codes(input, 0.01, codes), Error)
        << simd::isa_name(isa);
    std::vector<std::uint32_t> symbols(input.size());
    EXPECT_THROW(kernels::quantize_to_symbols(input, 0.01, symbols, nullptr),
                 Error)
        << simd::isa_name(isa);
  });
}

/// The overflow message a serial range check reports: extrema from
/// std::min/std::max in input order (NaNs hide from both unless one leads
/// the input), then the bound.
std::string serial_overflow_message(const std::vector<float>& input,
                                    double eb) {
  float lo = input[0];
  float hi = input[0];
  for (const float v : input) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::ostringstream os;
  os << " -- quantization code overflow: range [" << lo << ", " << hi
     << "] eb " << eb;
  return os.str();
}

/// Both quantize entry points must reject `input` with an Error carrying
/// the serial check's message.
void expect_range_rejected(const std::vector<float>& input, double eb,
                           const std::string& where) {
  const std::string want = serial_overflow_message(input, eb);
  auto ends_with_want = [&](const std::string& what) {
    return what.size() >= want.size() &&
           what.compare(what.size() - want.size(), want.size(), want) == 0;
  };
  std::vector<std::int32_t> codes(input.size());
  try {
    (void)kernels::quantize_to_codes(input, eb, codes);
    ADD_FAILURE() << where << ": quantize_to_codes accepted the input";
  } catch (const Error& e) {
    EXPECT_TRUE(ends_with_want(e.what())) << where << ": " << e.what();
  }
  std::vector<std::uint32_t> symbols(input.size());
  try {
    kernels::quantize_to_symbols(input, eb, symbols, nullptr);
    ADD_FAILURE() << where << ": quantize_to_symbols accepted the input";
  } catch (const Error& e) {
    EXPECT_TRUE(ends_with_want(e.what())) << where << ": " << e.what();
  }
}

TEST(RangeCheck, BadValueAtEveryLaneAndTailThrowsUnderEveryIsa) {
  // Each tier's range kernel splits the input into vector blocks and a
  // scalar tail; a bad value must be caught wherever it lands. With eb
  // 0.01 (inv 50), +-1e9 overflows int32 while +-0.3-scale noise fits.
  const double eb = 0.01;
  const float bad[] = {std::nanf(""), std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity(), 1e9f, -1e9f};
  for_each_available_isa([&](simd::Isa isa) {
    for (const float v : bad) {
      // Every lane of three 16-wide blocks (the first one seeds the
      // accumulators), then every position of inputs 1..33 long, which
      // are all or part scalar tail under every tier.
      const auto block = random_input(48, 91, 0.3f);
      for (std::size_t at = 0; at < block.size(); ++at) {
        std::vector<float> input = block;
        input[at] = v;
        expect_range_rejected(input, eb,
                              std::string(simd::isa_name(isa)) + " block " +
                                  std::to_string(v) + " at " +
                                  std::to_string(at));
      }
      for (std::size_t n = 1; n <= 33; ++n) {
        const auto base = random_input(n, 92 + n, 0.3f);
        for (std::size_t at = 0; at < n; ++at) {
          std::vector<float> input = base;
          input[at] = v;
          expect_range_rejected(input, eb,
                                std::string(simd::isa_name(isa)) + " n=" +
                                    std::to_string(n) + " " +
                                    std::to_string(v) + " at " +
                                    std::to_string(at));
        }
      }
    }
  });
}

TEST(RangeCheck, BoundaryInputsDecideAlikeUnderEveryIsa) {
  // eb 0.5 makes inv 1.0, so the int32 limits are the inputs themselves:
  // -2^31 is the last accepted value, 2^31 the first rejected one, and
  // 2147483520 the largest float below it.
  const double eb = 0.5;
  const float accepted[] = {-2147483648.0f, 2147483520.0f, -0.0f, 0.0f};
  for (std::size_t n : {1u, 7u, 8u, 15u, 16u, 17u, 40u}) {
    for (std::size_t at = 0; at < n; ++at) {
      std::vector<float> input = random_input(n, 500 + n, 1000.0f);
      input[at] = accepted[at % 4];
      input[n - 1 - at] = accepted[(at + 1) % 4];
      std::vector<std::int32_t> ref_codes(n);
      reference::quantize(input, eb, ref_codes);
      for_each_available_isa([&](simd::Isa isa) {
        std::vector<std::int32_t> codes(n);
        (void)kernels::quantize_to_codes(input, eb, codes);
        ASSERT_EQ(codes, ref_codes)
            << simd::isa_name(isa) << " n=" << n << " at=" << at;
        std::vector<std::uint32_t> symbols(n);
        kernels::quantize_to_symbols(input, eb, symbols, nullptr);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(symbols[i],
                    static_cast<std::uint32_t>(zigzag_encode(ref_codes[i])))
              << simd::isa_name(isa) << " n=" << n << " i=" << i;
        }
      });

      input[at] = 2147483648.0f;
      for_each_available_isa([&](simd::Isa isa) {
        expect_range_rejected(input, eb,
                              std::string(simd::isa_name(isa)) + " 2^31 n=" +
                                  std::to_string(n) + " at " +
                                  std::to_string(at));
      });
    }
  }
  // A bound so small that inv overflows to infinity: 0 * inf is NaN, so
  // even an all-zero input is rejected, by every tier alike.
  for_each_available_isa([&](simd::Isa isa) {
    expect_range_rejected(std::vector<float>(20, 0.0f), 1e-320,
                          std::string(simd::isa_name(isa)) + " inv=inf");
  });
}

TEST(SimdDifferential, FullCodecStreamsBytesIdenticalAcrossIsas) {
  // The end-to-end acceptance criterion: every registered codec's wire
  // bytes must not depend on which SIMD tier ran.
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  const auto input = random_input(40000, 91, 0.2f);
  for (const char* name : {"huffman", "cusz-like", "vector-lz", "hybrid",
                           "fz-gpu-like"}) {
    const Compressor& codec = get_compressor(name);
    ASSERT_TRUE(kernels::force_isa_for_testing(simd::Isa::kScalar));
    std::vector<std::byte> want;
    codec.compress(input, params, want);
    for_each_available_isa([&](simd::Isa isa) {
      std::vector<std::byte> stream;
      codec.compress(input, params, stream);
      ASSERT_EQ(stream, want) << name << " under " << simd::isa_name(isa);
      std::vector<float> out(input.size());
      codec.decompress(stream, out);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_LE(std::fabs(out[i] - input[i]), 0.01 * (1 + 1e-9))
            << name << " under " << simd::isa_name(isa);
      }
    });
  }
}

// ------------------------------------------------------------- workspaces

TEST(WorkspaceReuse, RepeatedCompressionsProduceIdenticalStreams) {
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;

  CompressionWorkspace reused;
  for (const char* name : {"huffman", "cusz-like", "vector-lz", "hybrid",
                           "fz-gpu-like"}) {
    const Compressor& codec = get_compressor(name);
    for (const std::uint64_t seed : {5ull, 6ull}) {
      const auto input = random_input(4096 + 17, seed, 0.2f);

      // Fresh workspace per call = the ground truth.
      std::vector<std::byte> fresh_stream;
      CompressionWorkspace fresh;
      codec.compress(input, params, fresh_stream, fresh);

      for (int round = 0; round < 3; ++round) {
        std::vector<std::byte> stream;
        codec.compress(input, params, stream, reused);
        ASSERT_EQ(stream, fresh_stream)
            << name << " stream changed on reuse round " << round;

        std::vector<float> out(input.size());
        codec.decompress(stream, out, reused);
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_LE(std::fabs(out[i] - input[i]), 0.01 * (1 + 1e-9));
        }
      }
    }
  }
}

TEST(WorkspaceReuse, GrowEventsFlattenAfterWarmup) {
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  const Compressor& codec = get_compressor("hybrid");
  const auto input = random_input(32768, 9, 0.2f);

  CompressionWorkspace ws;
  std::vector<std::byte> stream;
  std::vector<float> out(input.size());
  for (int round = 0; round < 2; ++round) {
    stream.clear();
    codec.compress(input, params, stream, ws);
    codec.decompress(stream, out, ws);
  }
  const std::uint64_t grow = ws.grow_events();
  const std::size_t capacity = ws.capacity_bytes();
  EXPECT_GT(capacity, 0u);
  for (int round = 0; round < 5; ++round) {
    stream.clear();
    codec.compress(input, params, stream, ws);
    codec.decompress(stream, out, ws);
  }
  EXPECT_EQ(ws.grow_events(), grow) << "codec path allocated after warm-up";
  EXPECT_EQ(ws.capacity_bytes(), capacity);
}

TEST(CompressedAllToAllHotPath, SteadyStateExchangeDoesNotAllocate) {
  constexpr int kWorld = 2;
  constexpr std::size_t kChunks = 3;
  constexpr std::size_t kElems = 2048;

  ThreadPool pool(2);
  Cluster cluster(kWorld);

  // One instance per rank, living across cluster runs like the trainer's.
  std::vector<CompressedAllToAll> a2a;
  for (int r = 0; r < kWorld; ++r) {
    CompressedAllToAllConfig config;
    config.codec = &get_compressor("hybrid");
    config.pool = &pool;
    config.charge_modeled_time = false;
    a2a.emplace_back(config);
  }

  auto run_exchanges = [&](int rounds) {
    cluster.run([&](Communicator& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      Rng rng(100 + rank);
      std::vector<float> payload(kWorld * kChunks * kElems);
      for (auto& v : payload) v = static_cast<float>(rng.normal(0.0, 0.2));

      CompressParams params;
      params.error_bound = 0.01;
      params.vector_dim = 32;
      std::vector<std::vector<A2AChunkSpec>> send(kWorld);
      for (int d = 0; d < kWorld; ++d) {
        for (std::size_t c = 0; c < kChunks; ++c) {
          const std::size_t at =
              (static_cast<std::size_t>(d) * kChunks + c) * kElems;
          send[static_cast<std::size_t>(d)].push_back(
              {std::span<const float>(payload).subspan(at, kElems), params});
        }
      }
      std::vector<std::vector<float>> storage(kWorld * kChunks,
                                              std::vector<float>(kElems));
      std::vector<std::vector<std::span<float>>> recv(kWorld);
      for (int s = 0; s < kWorld; ++s) {
        for (std::size_t c = 0; c < kChunks; ++c) {
          recv[static_cast<std::size_t>(s)].push_back(
              storage[static_cast<std::size_t>(s) * kChunks + c]);
        }
      }
      for (int round = 0; round < rounds; ++round) {
        a2a[rank].exchange(comm, send, recv, "test");
      }
    });
  };

  run_exchanges(2);  // warm-up
  std::uint64_t grow = 0;
  std::size_t capacity = 0;
  for (const auto& instance : a2a) {
    grow += instance.workspace_grow_events();
    capacity += instance.scratch_capacity_bytes();
  }
  EXPECT_GT(capacity, 0u);

  run_exchanges(4);  // steady state
  std::uint64_t grow_after = 0;
  std::size_t capacity_after = 0;
  for (const auto& instance : a2a) {
    grow_after += instance.workspace_grow_events();
    capacity_after += instance.scratch_capacity_bytes();
  }
  EXPECT_EQ(grow_after, grow)
      << "steady-state exchange allocated in the codec path";
  EXPECT_EQ(capacity_after, capacity);
}

// ------------------------------------------------- unique-vector counting

std::uint64_t colliding_hash(const void*, std::size_t) { return 42; }

TEST(CountUniqueVectors, HashCollisionsDoNotUndercount) {
  // Force every row into one hash bucket: only byte comparison separates
  // them, so a constant hash must still count exactly.
  std::vector<std::int32_t> rows;
  const std::size_t dim = 4;
  for (int r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      rows.push_back(static_cast<std::int32_t>(r % 10));  // 10 distinct rows
    }
  }
  EXPECT_EQ(detail::count_unique_rows_bytes(rows.data(),
                                            dim * sizeof(std::int32_t),
                                            rows.size() / dim,
                                            &colliding_hash),
            10u);
  EXPECT_EQ(count_unique_vectors(
                std::span<const std::int32_t>(rows), dim),
            10u);
}

// ----------------------------------------------------- bit reader pieces

TEST(BitReaderPeek, ZeroPadsPastEndAndBoundsChecksAdvance) {
  BitWriter writer;
  writer.write(0b1011, 4);
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  EXPECT_EQ(reader.peek(12), 0b1011u);  // high bits zero-padded
  reader.advance(4);
  EXPECT_EQ(reader.peek(8), 0u);
  EXPECT_THROW(reader.advance(8), FormatError);
  reader.set_bit_position(0);
  EXPECT_EQ(reader.read(4), 0b1011u);
  EXPECT_THROW(reader.set_bit_position(9), FormatError);
}

}  // namespace
}  // namespace dlcomp
