// Tests for compression-plan serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

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
