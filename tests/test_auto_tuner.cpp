// Tests for the automated error-bound selection (the paper's future-work
// extension).

#include <gtest/gtest.h>

#include "core/auto_tuner.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace dlcomp {
namespace {

TEST(AutoTuner, SelectsAGenerousBoundWithinTolerance) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(6, 8);
  const SyntheticClickDataset data(spec, 90);

  AutoTunerConfig config;
  config.candidates = {0.05, 0.02, 0.005};
  config.accuracy_tolerance = 0.05;  // generous: small bounds cannot fail
  config.probe_iterations = 60;
  config.model.bottom_hidden = {16};
  config.model.top_hidden = {16};
  config.model.learning_rate = 0.2f;

  const AutoTunerResult result = auto_select_global_eb(data, config);
  EXPECT_GT(result.selected_eb, 0.0);
  EXPECT_GT(result.baseline_accuracy, 0.5);
  ASSERT_FALSE(result.probes.empty());
  // Probes run largest-first and stop at the first acceptable bound.
  EXPECT_DOUBLE_EQ(result.probes.front().error_bound, 0.05);
  EXPECT_DOUBLE_EQ(result.selected_eb, result.probes.back().error_bound);
  EXPECT_TRUE(result.probes.back().within_tolerance);
  // Lossy probes actually compressed.
  EXPECT_GT(result.probes.back().compression_ratio, 1.0);
}

TEST(AutoTuner, ImpossibleToleranceFallsBackToTightest) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(4, 8);
  const SyntheticClickDataset data(spec, 91);

  AutoTunerConfig config;
  config.candidates = {0.5, 0.2};  // absurd bounds for 0.1-scale values
  config.accuracy_tolerance = -1.0;  // nothing can pass a negative bar
  config.probe_iterations = 30;
  config.model.bottom_hidden = {8};
  config.model.top_hidden = {8};

  const AutoTunerResult result = auto_select_global_eb(data, config);
  EXPECT_DOUBLE_EQ(result.selected_eb, 0.2);  // tightest candidate
  EXPECT_EQ(result.probes.size(), 2u);
  for (const auto& probe : result.probes) {
    EXPECT_FALSE(probe.within_tolerance);
  }
}

TEST(AutoTuner, UnsortedCandidatesRejected) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(4, 8);
  const SyntheticClickDataset data(spec, 92);
  AutoTunerConfig config;
  config.candidates = {0.01, 0.05};
  EXPECT_THROW(auto_select_global_eb(data, config), Error);
}

TEST(AutoTuner, DeterministicSelection) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(4, 8);
  const SyntheticClickDataset data(spec, 93);
  AutoTunerConfig config;
  config.candidates = {0.03, 0.01};
  config.probe_iterations = 30;
  config.model.bottom_hidden = {8};
  config.model.top_hidden = {8};
  const AutoTunerResult a = auto_select_global_eb(data, config);
  const AutoTunerResult b = auto_select_global_eb(data, config);
  EXPECT_DOUBLE_EQ(a.selected_eb, b.selected_eb);
  EXPECT_DOUBLE_EQ(a.baseline_accuracy, b.baseline_accuracy);
}

TEST(AutoTuner, ProbesAreHybridParallelTrainerRuns) {
  // Each probe is a trainer run on the real compressed-training path, so
  // its ratio and accuracy are exactly what the trainer reports for the
  // same config (the mapping documented in auto_tuner.hpp).
  const DatasetSpec spec = DatasetSpec::small_training_proxy(6, 8);
  const SyntheticClickDataset data(spec, 94);
  AutoTunerConfig config;
  config.candidates = {0.04, 0.01};
  config.accuracy_tolerance = -1.0;  // probe every candidate
  config.probe_iterations = 20;
  config.probe_batch = 64;
  config.eval_batches = 2;
  config.model.bottom_hidden = {8};
  config.model.top_hidden = {8};
  config.seed = 5;
  const AutoTunerResult tuned = auto_select_global_eb(data, config);

  TrainerConfig trainer;
  trainer.global_batch = config.probe_batch;
  trainer.iterations = config.probe_iterations;
  trainer.model = config.model;
  trainer.seed = config.seed;
  trainer.eval_batches = config.eval_batches;
  EXPECT_EQ(tuned.baseline_accuracy,
            HybridParallelTrainer(trainer).train(data).final_eval.accuracy);

  ASSERT_EQ(tuned.probes.size(), config.candidates.size());
  trainer.compression.codec = config.codec;
  for (const AutoTunerResult::Probe& probe : tuned.probes) {
    trainer.compression.global_eb = probe.error_bound;
    const TrainingResult run = HybridParallelTrainer(trainer).train(data);
    EXPECT_EQ(probe.compression_ratio, run.forward_cr()) << probe.error_bound;
    EXPECT_EQ(probe.accuracy, run.final_eval.accuracy) << probe.error_bound;
  }
}

}  // namespace
}  // namespace dlcomp
