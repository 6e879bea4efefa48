#pragma once

/// \file bench_training.hpp
/// Shared machinery for the accuracy-oriented benches (Figs. 5, 8, 9,
/// 10 and the dual-level ablation): each configuration trains through
/// HybridParallelTrainer on the sim backend, so accuracy and compression
/// ratio come from the same compressed all-to-alls training runs.

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace dlcomp::bench {

struct AccuracyRun {
  std::string label;
  /// Eval points in iteration order; the last is the final evaluation.
  std::vector<IterationRecord> curve;
  LossResult final_eval;
  double forward_cr = 1.0;  ///< TrainingResult::forward_cr()
};

struct AccuracyRunConfig {
  std::string label;
  /// Empty codec = uncompressed FP32 baseline.
  CompressionPolicy compression;
  std::size_t iterations = 400;
  std::size_t eval_every = 50;
};

/// Trains one configuration (world 4, global batch 128) and records its
/// held-out accuracy trajectory and forward CR.
inline AccuracyRun run_accuracy_experiment(const SyntheticClickDataset& data,
                                           const AccuracyRunConfig& config) {
  TrainerConfig trainer;
  trainer.global_batch = 128;
  trainer.iterations = config.iterations;
  trainer.model.bottom_hidden = {32};
  trainer.model.top_hidden = {32};
  // The 26-table proxy dilutes the per-table signal (1/sqrt(T) teacher
  // scaling); a brisk rate is needed to see separation within bench time.
  trainer.model.learning_rate = 0.2f;
  trainer.compression = config.compression;
  trainer.seed = 77;
  trainer.record_every = config.iterations;  // iteration 0 and the last
  trainer.eval_every = config.eval_every;
  trainer.eval_batches = 8;
  const TrainingResult result = HybridParallelTrainer(trainer).train(data);

  AccuracyRun run;
  run.label = config.label;
  run.final_eval = result.final_eval;
  run.forward_cr = result.forward_cr();
  for (IterationRecord rec : result.history) {
    if (rec.iter + 1 == config.iterations) {
      rec.eval_accuracy = result.final_eval.accuracy;
    }
    if (rec.eval_accuracy >= 0.0) run.curve.push_back(rec);
  }
  return run;
}

/// Prints a family of runs as an accuracy-curve table plus summary rows.
inline void print_runs(const std::vector<AccuracyRun>& runs) {
  std::vector<std::string> headers = {"iter"};
  for (const auto& run : runs) headers.push_back(run.label + " acc");
  TablePrinter curve(headers);
  if (!runs.empty()) {
    for (std::size_t p = 0; p < runs.front().curve.size(); ++p) {
      std::vector<std::string> row = {
          std::to_string(runs.front().curve[p].iter)};
      for (const auto& run : runs) {
        row.push_back(TablePrinter::num(run.curve[p].eval_accuracy * 100, 2) +
                      "%");
      }
      curve.add_row(row);
    }
  }
  curve.print(std::cout);

  TablePrinter summary({"config", "final eval acc", "delta vs first (pp)",
                        "final eval loss", "forward CR"});
  for (const auto& run : runs) {
    summary.add_row(
        {run.label, TablePrinter::num(run.final_eval.accuracy * 100, 3) + "%",
         TablePrinter::num(
             (run.final_eval.accuracy - runs.front().final_eval.accuracy) * 100,
             3),
         TablePrinter::num(run.final_eval.loss, 4),
         TablePrinter::num(run.forward_cr, 2)});
  }
  summary.print(std::cout);
}

}  // namespace dlcomp::bench
