#pragma once

/// \file bench_training.hpp
/// Shared machinery for the accuracy-oriented benches (Figs. 5, 8, 9,
/// 10): single-process DLRM training with a compression round-trip
/// injected at the lookup/gradient hooks. This is mathematically
/// identical to compressing the all-to-all payloads (the collective only
/// moves data; see model.hpp) but runs much faster than the threaded
/// cluster, so the benches can sweep several configurations.

#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "compress/registry.hpp"
#include "core/eb_scheduler.hpp"
#include "dlrm/model.hpp"
#include "data/synthetic.hpp"

namespace dlcomp::bench {

struct AccuracyCurvePoint {
  std::size_t iter = 0;
  double train_loss = 0.0;
  double eval_accuracy = 0.0;
  double eb_scale = 1.0;
  double cumulative_cr = 1.0;  ///< forward-lookup CR so far
};

struct AccuracyRun {
  std::string label;
  std::vector<AccuracyCurvePoint> curve;
  double final_eval_accuracy = 0.0;
  double final_eval_loss = 0.0;
  double forward_cr = 1.0;  ///< total raw / total compressed, forward
};

struct AccuracyRunConfig {
  std::string label;
  /// Registry codec name; empty = uncompressed FP32 baseline.
  std::string codec;
  /// Per-table forward error bounds; if empty, `global_eb` everywhere.
  std::vector<double> table_eb;
  double global_eb = 0.02;
  SchedulerConfig scheduler{.func = DecayFunc::kNone};
  double backward_relative_eb = 0.01;

  std::size_t iterations = 400;
  std::size_t batch = 128;
  std::size_t eval_every = 50;
  std::size_t eval_batches = 4;
  std::uint64_t model_seed = 77;
};

/// Trains one configuration and records the accuracy/CR trajectory.
inline AccuracyRun run_accuracy_experiment(const DatasetSpec& spec,
                                           const SyntheticClickDataset& data,
                                           const AccuracyRunConfig& config) {
  AccuracyRun run;
  run.label = config.label;

  DlrmConfig model_config;
  model_config.bottom_hidden = {32};
  model_config.top_hidden = {32};
  // The 26-table proxy dilutes the per-table signal (1/sqrt(T) teacher
  // scaling); a brisk rate is needed to see separation within bench time.
  model_config.learning_rate = 0.2f;
  DlrmModel model(spec, model_config, config.model_seed);

  const Compressor* codec =
      config.codec.empty() ? nullptr : &get_compressor(config.codec);
  const ErrorBoundScheduler scheduler(config.scheduler);
  std::vector<double> table_eb = config.table_eb;
  if (table_eb.empty()) {
    table_eb.assign(spec.num_tables(), config.global_eb);
  }

  std::uint64_t raw_bytes = 0;
  std::uint64_t wire_bytes = 0;
  double current_scale = 1.0;

  DlrmModel::TableTransform lookup_hook;
  DlrmModel::TableTransform grad_hook;
  if (codec != nullptr) {
    lookup_hook = [&](std::size_t t, Matrix& lookups) {
      CompressParams params;
      params.error_bound = table_eb[t] * current_scale;
      params.vector_dim = spec.embedding_dim;
      std::vector<std::byte> stream;
      const auto stats = codec->compress(lookups.flat(), params, stream);
      codec->decompress(stream, lookups.flat());
      raw_bytes += stats.input_bytes;
      wire_bytes += stats.output_bytes;
    };
    grad_hook = [&](std::size_t t, Matrix& grads) {
      (void)t;
      CompressParams params;
      params.error_bound = config.backward_relative_eb;
      params.eb_mode = EbMode::kRangeRelative;
      params.vector_dim = spec.embedding_dim;
      std::vector<std::byte> stream;
      codec->compress(grads.flat(), params, stream);
      codec->decompress(stream, grads.flat());
    };
  }

  for (std::size_t i = 0; i < config.iterations; ++i) {
    current_scale = scheduler.scale_at(i);
    const SampleBatch batch = data.make_batch(config.batch, i);
    const LossResult loss = model.train_step(batch, lookup_hook, grad_hook);

    if (i % config.eval_every == 0 || i + 1 == config.iterations) {
      AccuracyCurvePoint point;
      point.iter = i;
      point.train_loss = loss.loss;
      point.eb_scale = current_scale;
      point.eval_accuracy =
          model.evaluate_stream(data, config.batch, config.eval_batches)
              .accuracy;
      point.cumulative_cr =
          wire_bytes > 0 ? static_cast<double>(raw_bytes) /
                               static_cast<double>(wire_bytes)
                         : 1.0;
      run.curve.push_back(point);
    }
  }

  const LossResult final_eval =
      model.evaluate_stream(data, config.batch, config.eval_batches * 2);
  run.final_eval_accuracy = final_eval.accuracy;
  run.final_eval_loss = final_eval.loss;
  run.forward_cr = wire_bytes > 0 ? static_cast<double>(raw_bytes) /
                                        static_cast<double>(wire_bytes)
                                  : 1.0;
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
        {run.label, TablePrinter::num(run.final_eval_accuracy * 100, 3) + "%",
         TablePrinter::num(
             (run.final_eval_accuracy - runs.front().final_eval_accuracy) * 100,
             3),
         TablePrinter::num(run.final_eval_loss, 4),
         TablePrinter::num(run.forward_cr, 2)});
  }
  summary.print(std::cout);
}

}  // namespace dlcomp::bench
