#pragma once

/// \file auto_tuner.hpp
/// Automated global error-bound selection -- the paper's stated future
/// work ("a more advanced and automated approach for offline selection of
/// a fixed global error-bound", Sec. VI), implemented here as a
/// probe-training search: each candidate bound is evaluated by a short
/// HybridParallelTrainer run (the real compressed-training path), and
/// the largest bound whose held-out accuracy stays within tolerance of
/// the uncompressed probe is selected.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/batch_source.hpp"
#include "dlrm/model.hpp"

namespace dlcomp {

struct AutoTunerConfig {
  /// Candidate bounds, evaluated from largest to smallest; the first one
  /// within tolerance wins. Must be sorted descending.
  std::vector<double> candidates = {0.08, 0.05, 0.03, 0.02, 0.01, 0.005};
  /// Acceptable held-out accuracy drop versus the uncompressed probe
  /// (absolute, e.g. 0.01 = one percentage point).
  double accuracy_tolerance = 0.01;
  /// Probe run length and global batch size (must divide by the probe
  /// world of 4).
  std::size_t probe_iterations = 150;
  std::size_t probe_batch = 128;
  std::size_t eval_batches = 4;
  /// Codec used during probing.
  std::string codec = "hybrid";
  DlrmConfig model;
  std::uint64_t seed = 1234;
};

struct AutoTunerResult {
  double selected_eb = 0.0;
  double baseline_accuracy = 0.0;
  /// Per-candidate probe outcomes, in evaluation order.
  struct Probe {
    double error_bound = 0.0;
    double accuracy = 0.0;
    double compression_ratio = 0.0;
    bool within_tolerance = false;
  };
  std::vector<Probe> probes;
};

/// Runs the search. Each probe is HybridParallelTrainer on the sim
/// backend at the TrainerConfig defaults (world 4, overlap off) with
/// global_batch = probe_batch, iterations = probe_iterations, model,
/// seed and eval_batches taken from `config`; a candidate probe sets
/// compression.codec = codec and compression.global_eb = the candidate,
/// the baseline probe leaves the codec empty. A probe's accuracy is the
/// trainer's final_eval.accuracy and its ratio is forward_cr().
/// Deterministic in (config.seed, dataset).
AutoTunerResult auto_select_global_eb(const BatchSource& dataset,
                                      const AutoTunerConfig& config);

}  // namespace dlcomp
