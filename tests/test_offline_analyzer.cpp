// Tests for the offline analysis stage.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/bitstream.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/offline_analyzer.hpp"
#include "data/synthetic.hpp"
#include "support/reference_analysis.hpp"

namespace dlcomp {
namespace {

class OfflineAnalyzerFixture : public ::testing::Test {
 protected:
  OfflineAnalyzerFixture()
      : spec_(DatasetSpec::criteo_kaggle_like(20000)),
        dataset_(spec_, 77),
        tables_(make_embedding_set(spec_, 77)) {}

  DatasetSpec spec_;
  SyntheticClickDataset dataset_;
  std::vector<EmbeddingTable> tables_;
};

TEST_F(OfflineAnalyzerFixture, ReportCoversEveryTable) {
  AnalyzerConfig config;
  config.sample_batches = 2;
  const OfflineAnalyzer analyzer(config);
  const AnalysisReport report = analyzer.analyze(dataset_, tables_);
  ASSERT_EQ(report.tables.size(), spec_.num_tables());
  for (std::size_t t = 0; t < report.tables.size(); ++t) {
    EXPECT_EQ(report.tables[t].table_id, t);
    EXPECT_GT(report.tables[t].homo.original_patterns, 0u);
    EXPECT_GE(report.tables[t].homo.original_patterns,
              report.tables[t].homo.quantized_patterns);
    EXPECT_GT(report.tables[t].assigned_eb, 0.0);
    EXPECT_FALSE(report.tables[t].selection.candidates.empty());
  }
}

TEST_F(OfflineAnalyzerFixture, ErrorBoundsMatchClasses) {
  AnalyzerConfig config;
  config.sample_batches = 2;
  const OfflineAnalyzer analyzer(config);
  const AnalysisReport report = analyzer.analyze(dataset_, tables_);
  for (const auto& t : report.tables) {
    EXPECT_DOUBLE_EQ(t.assigned_eb, config.eb_config.eb_for(t.eb_class));
  }
  const auto ebs = report.table_error_bounds();
  ASSERT_EQ(ebs.size(), spec_.num_tables());
  for (std::size_t t = 0; t < ebs.size(); ++t) {
    EXPECT_DOUBLE_EQ(ebs[t], report.tables[t].assigned_eb);
  }
}

TEST_F(OfflineAnalyzerFixture, ClassesAreDiverse) {
  // The whole point of table-wise configuration: tables should not all
  // land in one class on a Criteo-shaped workload.
  AnalyzerConfig config;
  config.sample_batches = 2;
  const OfflineAnalyzer analyzer(config);
  const AnalysisReport report = analyzer.analyze(dataset_, tables_);
  std::set<EbClass> classes;
  for (const auto& t : report.tables) classes.insert(t.eb_class);
  EXPECT_GE(classes.size(), 2u);
}

TEST_F(OfflineAnalyzerFixture, ChoicesAreDiverse) {
  AnalyzerConfig config;
  config.sample_batches = 2;
  const OfflineAnalyzer analyzer(config);
  const AnalysisReport report = analyzer.analyze(dataset_, tables_);
  const auto choices = report.table_choices();
  std::set<HybridChoice> kinds(choices.begin(), choices.end());
  // Both encoders should win somewhere (paper Table V: stark contrast in
  // per-table winners).
  EXPECT_TRUE(kinds.count(HybridChoice::kVectorLz) == 1 ||
              kinds.count(HybridChoice::kHuffman) == 1);
}

TEST_F(OfflineAnalyzerFixture, FalsePredictionIsCommon) {
  // Paper Sec. III-B (1): Lorenzo prediction hurts on embedding batches
  // for most tables.
  AnalyzerConfig config;
  config.sample_batches = 2;
  const OfflineAnalyzer analyzer(config);
  const AnalysisReport report = analyzer.analyze(dataset_, tables_);
  std::size_t false_pred = 0;
  for (const auto& t : report.tables) {
    if (t.false_prediction) ++false_pred;
  }
  EXPECT_GT(false_pred, report.tables.size() / 2);
}

TEST_F(OfflineAnalyzerFixture, SkewedTablesHomogenizeMore) {
  AnalyzerConfig config;
  config.sample_batches = 2;
  const OfflineAnalyzer analyzer(config);
  const AnalysisReport report = analyzer.analyze(dataset_, tables_);

  // Table 0 is tiny and hot (19-ish unique lookups per batch in the
  // paper); table 2 is huge with weak skew.
  EXPECT_LT(report.tables[0].homo.original_patterns,
            report.tables[2].homo.original_patterns);
}

TEST_F(OfflineAnalyzerFixture, MismatchedTablesThrow) {
  AnalyzerConfig config;
  const OfflineAnalyzer analyzer(config);
  std::vector<EmbeddingTable> wrong;
  EXPECT_THROW(analyzer.analyze(dataset_, wrong), Error);
}

TEST_F(OfflineAnalyzerFixture, TableFailureReachesCallerInTableOrder) {
  // Tables from the same spec with a smaller cardinality cap: the
  // dataset samples indices past their last row, so several tables' tasks
  // throw. The caller must get a dlcomp::Error (not std::terminate from
  // a pool worker), and it must be the lowest-indexed table's, whatever
  // order the workers ran in.
  AnalyzerConfig config;
  config.sample_batches = 2;
  const std::vector<EmbeddingTable> small =
      make_embedding_set(DatasetSpec::criteo_kaggle_like(100), 77);

  std::string expected;
  for (std::size_t t = 0; t < small.size() && expected.empty(); ++t) {
    for (std::size_t s = 0; s < config.sample_batches && expected.empty(); ++s) {
      const SampleBatch batch = dataset_.make_batch(spec_.default_batch, s);
      for (const std::uint32_t index : batch.indices[t]) {
        if (index >= small[t].rows()) {
          expected = "lookup index " + std::to_string(index) +
                     " out of range " + std::to_string(small[t].rows());
          break;
        }
      }
    }
  }
  ASSERT_FALSE(expected.empty());

  const OfflineAnalyzer analyzer(config);
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      (void)analyzer.analyze(dataset_, small);
      FAIL() << "out-of-range lookups did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

/// Fails make_batch for the listed batch indices.
class FailingBatches final : public BatchSource {
 public:
  FailingBatches(const BatchSource& inner, std::set<std::uint64_t> failing)
      : inner_(inner), failing_(std::move(failing)) {}

  [[nodiscard]] const DatasetSpec& spec() const noexcept override {
    return inner_.spec();
  }
  [[nodiscard]] SampleBatch make_batch(std::size_t batch_size,
                                       std::uint64_t index) const override {
    if (failing_.count(index) != 0) {
      throw Error("batch " + std::to_string(index) + " failed");
    }
    return inner_.make_batch(batch_size, index);
  }
  [[nodiscard]] SampleBatch make_eval_batch(
      std::size_t batch_size, std::uint64_t index) const override {
    return inner_.make_eval_batch(batch_size, index);
  }

 private:
  const BatchSource& inner_;
  std::set<std::uint64_t> failing_;
};

TEST_F(OfflineAnalyzerFixture, BatchFailureReachesCallerInBatchOrder) {
  // The sample batches are made on the pool too: the caller gets the
  // lowest-indexed failing batch's error, whatever order they ran in.
  AnalyzerConfig config;
  config.sample_batches = 6;
  const FailingBatches source(dataset_, {2, 3, 5});
  const OfflineAnalyzer analyzer(config);
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      (void)analyzer.analyze(source, tables_);
      FAIL() << "failing batches did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("batch 2 failed"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------------- entropies

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

double entropy_of_codes(std::span<const std::int32_t> codes) {
  std::vector<std::uint32_t> symbols(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    symbols[i] = zigzag_encode32(codes[i]);
  }
  return detail::symbol_entropy_bits(symbols);
}

TEST(SymbolEntropy, MatchesHashMapReferenceBitForBit) {
  // Codes spanning +-2^30: most near zero (the dense counts), a few far
  // out (the overflow map), and both sides of the dense limit, in random
  // first-seen orders. Rounds run back to back on one thread, so a count
  // left behind in the thread-local array would show in the next round.
  Rng rng(5);
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 1 + rng.next_below(40000);
    const double spread =
        round % 3 == 0 ? 2.0 : (round % 3 == 1 ? 60.0 : 3000.0);
    std::vector<std::int32_t> codes(n);
    for (auto& c : codes) {
      c = rng.bernoulli(0.02)
              ? static_cast<std::int32_t>(rng.next_below(1ULL << 31)) -
                    (1 << 30)
              : static_cast<std::int32_t>(std::lround(rng.normal(0.0, spread)));
    }
    // zigzag(-4096) = 8191 is the last dense symbol, zigzag(4096) = 8192
    // the first overflow one.
    for (const std::int32_t edge : {-(1 << 30), 1 << 30, -4096, 4096}) {
      codes[rng.next_below(n)] = edge;
    }
    EXPECT_EQ(bits(entropy_of_codes(codes)),
              bits(reference::code_entropy_bits(codes)));
  }
}

TEST(SymbolEntropy, DegenerateInputs) {
  EXPECT_EQ(entropy_of_codes({}), 0.0);
  EXPECT_EQ(reference::code_entropy_bits({}), 0.0);
  const std::vector<std::int32_t> constant(1000, -(1 << 30));
  EXPECT_EQ(entropy_of_codes(constant), 0.0);
  const std::vector<std::int32_t> two = {7, -7, 7, -7};
  EXPECT_EQ(bits(entropy_of_codes(two)), bits(1.0));
}

// ------------------------------------------------------------ pinned report

/// One table of the pinned report. Doubles are IEEE-754 bit patterns.
struct PinnedTable {
  EbClass eb_class;
  std::uint64_t assigned_eb;
  HybridChoice choice;
  std::size_t original_patterns;
  std::size_t quantized_patterns;
  std::size_t lz_matches;
  std::uint64_t direct_entropy_bits;
  std::uint64_t lorenzo_entropy_bits;
  std::uint64_t excess_kurtosis;
  std::uint64_t compression_ratio[2];  ///< vector-lz, huffman
};

constexpr EbClass kL = EbClass::kLarge;
constexpr EbClass kM = EbClass::kMedium;
constexpr EbClass kS = EbClass::kSmall;
constexpr HybridChoice kVz = HybridChoice::kVectorLz;
constexpr HybridChoice kHf = HybridChoice::kHuffman;

/// The benchmark's analysis (bench/e2e/train.cpp), as computed by the
/// serial analyzer that drew each table's sample batches itself and took
/// its Lorenzo codes from the scalar reference kernel. Sharing the
/// batches, analysing tables in parallel and using the fused kernel must
/// leave every value bit for bit unchanged. quantized_patterns came
/// later, from the analyzer that quantized the first batch on its own,
/// decoded both candidates and counted entropies in a hash map: the
/// one-pass analysis must reproduce that too.
// clang-format off
constexpr PinnedTable kPinnedTerabyte[] = {
    {kL, 0x3fa999999999999a, kVz, 205, 205, 3353, 0x401548af37142c1b, 0x40174b3437acf53f, 0x3fb30223b0f2b040, {0x40348c0969234f67, 0x402c645ed338b372}},  // 0
    {kL, 0x3fa999999999999a, kVz, 383, 383, 2828, 0x401516325be22e74, 0x4018627ffd690727, 0x3fb2426036cb0a20, {0x4028ea1bcc3343b5, 0x402d96e5f25a9894}},  // 1
    {kL, 0x3fa999999999999a, kHf, 1770, 1770, 126, 0x4016a7cece9816f1, 0x401b8fb6b1b01134, 0xbff33519887a96a2, {0x401077154240aab3, 0x402aae123652ee95}},  // 2
    {kM, 0x3f9eb851eb851eb8, kVz, 1152, 891, 1983, 0x40169dc9ec291b00, 0x401b8b7999e107e7, 0xbff320496c410a0b, {0x401e802dfd4557e3, 0x4024378eac933ea3}},  // 3
    {kM, 0x3f9eb851eb851eb8, kVz, 663, 405, 3322, 0x40156cf49da3dee0, 0x40192e1a402ac706, 0xbfcb2c65bccc3d30, {0x4033c9c69653135a, 0x4026487978122607}},  // 4
    {kL, 0x3fa999999999999a, kVz, 3, 3, 4093, 0x40140c7c931db8c3, 0x4010d02449610b4f, 0x3fd5a2d1a882e8f0, {0x406e556e9c86d7c6, 0x402e266e5c8c57a3}},  // 5
    {kM, 0x3f9eb851eb851eb8, kHf, 1414, 1053, 1648, 0x4016a21ba5af60db, 0x401b8b77a0ea4b48, 0xbff309a24189c080, {0x401a6f85a86230fc, 0x4024412796d9c17a}},  // 6
    {kM, 0x3f9eb851eb851eb8, kVz, 257, 209, 3551, 0x40153dcb630b9767, 0x401819863496e7c0, 0xbfb6b32487c743e0, {0x403b36044aa4ed46, 0x402660846d2fb229}},  // 7
    {kL, 0x3fa999999999999a, kVz, 63, 63, 3530, 0x401542e2578d08fa, 0x4018b15f5e29d19c, 0xbfc83d0a9a9c7080, {0x403a4e74fdeb4b3f, 0x402cbdb8deb72950}},  // 8
    {kL, 0x3fa999999999999a, kHf, 1812, 1812, 80, 0x40117b168fc08288, 0x4015743fef04925a, 0x3f9c9533ab2ab000, {0x40104796cf6eacf1, 0x40359a8851fbf053}},  // 9
    {kM, 0x3f9eb851eb851eb8, kHf, 1534, 1144, 1629, 0x4016a307fbd1b738, 0x401b7b0646f41db3, 0xbff318c863b6e86e, {0x401a3cb8b79f3640, 0x402445aa685c22a0}},  // 10
    {kL, 0x3fa999999999999a, kHf, 1708, 1708, 193, 0x4016a692ef357a16, 0x401b85c47c920f47, 0xbff322edcaab7f58, {0x4010be41f36b0731, 0x402ab0c40f7833a2}},  // 11
    {kL, 0x3fa999999999999a, kVz, 10, 10, 4078, 0x4014e5c2abecdf66, 0x40164b6064b77466, 0xbfc0544a596001a0, {0x4068e17b6e9a56b2, 0x402d423f1e28a8cf}},  // 12
    {kL, 0x3fa999999999999a, kVz, 193, 193, 3372, 0x4014f0eabc134767, 0x40172a883f74c85f, 0x3fcb0b7870b4da20, {0x40350a97b51f4e22, 0x402dba024b19ad4b}},  // 13
    {kL, 0x3fa999999999999a, kVz, 396, 367, 3085, 0x40152ee4ddbe6340, 0x4018819f5dbc2c34, 0xbfbfac404911f940, {0x402edcda8e3c35ff, 0x402d0b0fb67c003a}},  // 14
    {kL, 0x3fa999999999999a, kVz, 154, 154, 2575, 0x4016a0c724009444, 0x401b69e01e961619, 0xbff3301daeb8dd11, {0x4024f0ef8e2c61e3, 0x402abe9ee3363019}},  // 15
    {kL, 0x3fa999999999999a, kVz, 4, 4, 4092, 0x40147bd8bba7945d, 0x40139ea1d0ad0455, 0xbfd07901579210f0, {0x406de5d6e3f8868a, 0x402cce31fcd23efc}},  // 16
    {kS, 0x3f847ae147ae147b, kVz, 414, 242, 3222, 0x40155b559199b600, 0x4018b29f411f391e, 0x3fd3f97e6f4ed530, {0x4031ae81d753b514, 0x401d3182f4850b94}},  // 17
    {kL, 0x3fa999999999999a, kVz, 14, 14, 4035, 0x4014da9af4a3cf6c, 0x4016c01131c4e6a6, 0xbfd98bc513867428, {0x40606bc330f12ec3, 0x402dc367bd3c6c8c}},  // 18
    {kL, 0x3fa999999999999a, kHf, 1652, 1652, 284, 0x4016a772ca8de314, 0x401b935ed7eccb02, 0xbff331a0c45a610e, {0x401122d86b337ce3, 0x402aad1d8ee14859}},  // 19
    {kM, 0x3f9eb851eb851eb8, kVz, 266, 223, 3562, 0x4014f0e222b8cf23, 0x4017315948674075, 0x3fac4c143fd8a2c0, {0x403bb5f5d32fbc74, 0x4026e6f4d2a8e471}},  // 20
    {kL, 0x3fa999999999999a, kHf, 804, 804, 1764, 0x40157372fdce7e3f, 0x40196e1eef546386, 0xbfb7f5cdda3ff700, {0x401bb6f1d2aed486, 0x402cc0a5c6bbcdd3}},  // 21
    {kL, 0x3fa999999999999a, kHf, 1795, 1795, 112, 0x4016a7958c65e543, 0x401b90161ee787c9, 0xbff32d91a4454324, {0x40106885d2766bdc, 0x402aaa4001aaa400}},  // 22
    {kL, 0x3fa999999999999a, kHf, 1472, 1472, 438, 0x40117f32bbae91cd, 0x401588709ad1fe5d, 0x3f82cdc89aafea00, {0x4011d8473b315568, 0x4035a85ab0fbc51e}},  // 23
    {kS, 0x3f847ae147ae147b, kVz, 108, 52, 3962, 0x401626796516ae07, 0x4017107eab821198, 0xbff1b2a38ca62b0c, {0x4054d254ab4a4c89, 0x401bd33b869acfad}},  // 24
    {kL, 0x3fa999999999999a, kVz, 36, 36, 3772, 0x401530c77500f3b2, 0x4017b8b97b43a73e, 0x3fb0af95697f4840, {0x4045538e5ecd6ee1, 0x402cd3ab3c9a3d8d}},  // 25
};
// clang-format on

TEST(OfflineAnalyzerPinned, BenchReportIsBitIdentical) {
  const DatasetSpec spec = DatasetSpec::criteo_terabyte_like(20000);
  const SyntheticClickDataset dataset(spec, /*seed=*/67);
  const std::vector<EmbeddingTable> tables = make_embedding_set(spec, 42);
  AnalyzerConfig config;
  config.sample_batches = 2;
  config.sampling_eb = 0.005;
  const AnalysisReport report = OfflineAnalyzer(config).analyze(dataset, tables);

  ASSERT_EQ(report.tables.size(), std::size(kPinnedTerabyte));
  const std::vector<HybridChoice> choices = report.table_choices();
  for (std::size_t t = 0; t < report.tables.size(); ++t) {
    SCOPED_TRACE("table " + std::to_string(t));
    const TableAnalysis& got = report.tables[t];
    const PinnedTable& want = kPinnedTerabyte[t];
    EXPECT_EQ(got.table_id, t);
    EXPECT_EQ(got.eb_class, want.eb_class);
    EXPECT_EQ(bits(got.assigned_eb), want.assigned_eb);
    EXPECT_EQ(choices[t], want.choice);
    EXPECT_EQ(got.homo.original_patterns, want.original_patterns);
    EXPECT_EQ(got.homo.quantized_patterns, want.quantized_patterns);
    EXPECT_EQ(got.lz_matches, want.lz_matches);
    EXPECT_EQ(bits(got.direct_entropy_bits), want.direct_entropy_bits);
    EXPECT_EQ(bits(got.lorenzo_entropy_bits), want.lorenzo_entropy_bits);
    EXPECT_EQ(bits(got.value_summary.excess_kurtosis), want.excess_kurtosis);
    ASSERT_EQ(got.selection.candidates.size(), 2u);
    EXPECT_EQ(got.selection.candidates[0].codec, "vector-lz");
    EXPECT_EQ(got.selection.candidates[1].codec, "huffman");
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(bits(got.selection.candidates[c].compression_ratio),
                want.compression_ratio[c])
          << got.selection.candidates[c].codec;
    }
  }
}

}  // namespace
}  // namespace dlcomp
