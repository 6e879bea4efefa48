#include "core/auto_tuner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/trainer.hpp"

namespace dlcomp {

namespace {

/// One probe training run; `error_bound` 0 is the uncompressed baseline.
AutoTunerResult::Probe probe_run(const BatchSource& dataset,
                                 const AutoTunerConfig& config,
                                 double error_bound) {
  TrainerConfig trainer;
  trainer.global_batch = config.probe_batch;
  trainer.iterations = config.probe_iterations;
  trainer.model = config.model;
  trainer.seed = config.seed;
  trainer.eval_batches = config.eval_batches;
  if (error_bound > 0.0) {
    trainer.compression.codec = config.codec;
    trainer.compression.global_eb = error_bound;
  }
  const TrainingResult result = HybridParallelTrainer(trainer).train(dataset);

  AutoTunerResult::Probe probe;
  probe.error_bound = error_bound;
  probe.accuracy = result.final_eval.accuracy;
  probe.compression_ratio = result.forward_cr();
  return probe;
}

}  // namespace

AutoTunerResult auto_select_global_eb(const BatchSource& dataset,
                                      const AutoTunerConfig& config) {
  DLCOMP_CHECK_MSG(!config.candidates.empty(), "no candidate bounds");
  DLCOMP_CHECK_MSG(
      std::is_sorted(config.candidates.begin(), config.candidates.end(),
                     std::greater<double>{}),
      "candidates must be sorted descending (largest bound first)");

  AutoTunerResult result;
  result.baseline_accuracy = probe_run(dataset, config, 0.0).accuracy;

  // Largest-first: the first candidate inside tolerance maximizes the
  // compression ratio among acceptable bounds.
  for (const double eb : config.candidates) {
    AutoTunerResult::Probe probe = probe_run(dataset, config, eb);
    probe.within_tolerance =
        probe.accuracy >= result.baseline_accuracy - config.accuracy_tolerance;
    result.probes.push_back(probe);
    if (probe.within_tolerance && result.selected_eb == 0.0) {
      result.selected_eb = eb;
      break;  // paper semantics: take the most generous acceptable bound
    }
  }
  if (result.selected_eb == 0.0) {
    // Nothing passed: fall back to the tightest candidate.
    result.selected_eb = config.candidates.back();
  }
  return result;
}

}  // namespace dlcomp
