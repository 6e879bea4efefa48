// Tests for compression-plan serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/offline_analyzer.hpp"
#include "core/report_io.hpp"
#include "data/synthetic.hpp"

namespace dlcomp {
namespace {

CompressionPlan sample_plan() {
  CompressionPlan plan;
  plan.tables.push_back({0, 0.05, EbClass::kLarge, HybridChoice::kVectorLz,
                         0.0, 1.0});
  plan.tables.push_back({1, 0.03, EbClass::kMedium, HybridChoice::kHuffman,
                         0.25, 0.75});
  plan.tables.push_back({2, 0.01, EbClass::kSmall, HybridChoice::kAuto,
                         0.618182, 0.381818});
  return plan;
}

TEST(ReportIo, StringRoundTrip) {
  const CompressionPlan plan = sample_plan();
  const std::string text = plan_to_string(plan);
  const CompressionPlan back = plan_from_string(text);

  ASSERT_EQ(back.tables.size(), plan.tables.size());
  for (std::size_t i = 0; i < plan.tables.size(); ++i) {
    EXPECT_EQ(back.tables[i].table_id, plan.tables[i].table_id);
    EXPECT_DOUBLE_EQ(back.tables[i].error_bound, plan.tables[i].error_bound);
    EXPECT_EQ(back.tables[i].eb_class, plan.tables[i].eb_class);
    EXPECT_EQ(back.tables[i].choice, plan.tables[i].choice);
    EXPECT_NEAR(back.tables[i].homo_index, plan.tables[i].homo_index, 1e-9);
    EXPECT_NEAR(back.tables[i].pattern_retention,
                plan.tables[i].pattern_retention, 1e-9);
  }
}

TEST(ReportIo, FormatIsHumanReadable) {
  const std::string text = plan_to_string(sample_plan());
  EXPECT_NE(text.find("dlcomp-plan v1"), std::string::npos);
  EXPECT_NE(text.find("tables 3"), std::string::npos);
  EXPECT_NE(text.find("table 1 eb 0.03 class M codec huffman"),
            std::string::npos);
}

TEST(ReportIo, AccessorsMatchTrainerInputs) {
  const CompressionPlan plan = sample_plan();
  const auto ebs = plan.table_error_bounds();
  const auto choices = plan.table_choices();
  ASSERT_EQ(ebs.size(), 3u);
  EXPECT_DOUBLE_EQ(ebs[0], 0.05);
  EXPECT_DOUBLE_EQ(ebs[2], 0.01);
  EXPECT_EQ(choices[1], HybridChoice::kHuffman);
}

TEST(ReportIo, GarbageRejected) {
  EXPECT_THROW(plan_from_string("not a plan"), FormatError);
  EXPECT_THROW(plan_from_string("dlcomp-plan v2\ntables 0\n"), FormatError);
  EXPECT_THROW(plan_from_string("dlcomp-plan v1\ntables 1\nbogus"),
               FormatError);
  // Truncated mid-row.
  EXPECT_THROW(plan_from_string("dlcomp-plan v1\ntables 1\ntable 0 eb 0.01"),
               FormatError);
  // Unknown class / codec names.
  EXPECT_THROW(plan_from_string("dlcomp-plan v1\ntables 1\n"
                                "table 0 eb 0.01 class X codec auto homo 0 "
                                "retention 1"),
               FormatError);

  // A plan file comes from outside (`dlcomp ckpt save --plan FILE`): a
  // count, id or bound that would fail far from the parser is rejected
  // in it, with the offending row named.
  const auto plan = [](std::uint64_t count,
                       std::vector<std::pair<std::string, std::string>> rows) {
    std::string text = "dlcomp-plan v1\ntables " + std::to_string(count) + "\n";
    for (const auto& [id, eb] : rows) {
      text += "table " + id + " eb " + eb +
              " class M codec auto homo 0 retention 1\n";
    }
    return text;
  };
  const std::pair<std::string, std::string> hostile[] = {
      // A huge claimed count is not reserved: the parse runs out of rows.
      {plan(1000000000000, {{"0", "0.01"}}), "plan row 2"},
      // Ids must be 0..count-1, each once.
      {plan(3, {{"0", "0.01"}, {"99", "0.01"}, {"2", "0.01"}}), "plan row 2"},
      {plan(3, {{"0", "0.01"}, {"-1", "0.01"}, {"2", "0.01"}}), "plan row 2"},
      {plan(3, {{"0", "0.01"}, {"2", "0.01"}, {"0", "0.01"}}), "plan row 3"},
      // Bounds must be finite and positive.
      {plan(3, {{"0", "-1"}, {"1", "0.01"}, {"2", "0.01"}}), "plan row 1"},
      {plan(3, {{"0", "0.01"}, {"1", "0"}, {"2", "0.01"}}), "plan row 2"},
      {plan(3, {{"0", "0.01"}, {"1", "0.01"}, {"2", "nan"}}), "plan row 3"},
  };
  for (const auto& [text, row] : hostile) {
    try {
      (void)plan_from_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find(row), std::string::npos)
          << e.what();
    }
  }
  // Any order of the ids 0..count-1 is a valid plan.
  const CompressionPlan ok = plan_from_string(
      plan(3, {{"2", "0.03"}, {"0", "0.01"}, {"1", "0.02"}}));
  EXPECT_EQ(ok.table_error_bounds(), (std::vector<double>{0.01, 0.02, 0.03}));
}

TEST(ReportIo, FileRoundTrip) {
  const std::string path = "/tmp/dlcomp_plan_test.txt";
  save_plan(path, sample_plan());
  const CompressionPlan back = load_plan(path);
  EXPECT_EQ(back.tables.size(), 3u);
  std::remove(path.c_str());
  EXPECT_THROW(load_plan("/no/such/dir/plan.txt"), Error);
  // A disk that takes no bytes fails the save, not silently.
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_THROW(save_plan("/dev/full", sample_plan()), Error);
  }
}

TEST(ReportIo, EndToEndFromAnalyzer) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(6, 8);
  const SyntheticClickDataset data(spec, 70);
  const auto tables = make_embedding_set(spec, 70);
  AnalyzerConfig config;
  config.sample_batches = 2;
  const AnalysisReport report = OfflineAnalyzer(config).analyze(data, tables);

  const CompressionPlan plan = make_plan(report);
  const CompressionPlan back = plan_from_string(plan_to_string(plan));
  EXPECT_EQ(back.table_error_bounds(), report.table_error_bounds());
  EXPECT_EQ(back.table_choices(), report.table_choices());
}

}  // namespace
}  // namespace dlcomp
