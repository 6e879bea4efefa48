// Reproduces Fig. 5: accuracy and compression ratio under different
// error-bound decay functions. The paper compares decay schedules and
// finds step-wise (staircase) decay gives the best compression benefit
// while preserving convergence, adopting it as the default.

#include <iostream>

#include "bench_training.hpp"
#include "data/synthetic.hpp"

int main() {
  using namespace dlcomp;
  using namespace dlcomp::bench;
  banner("bench_fig05_decay_functions",
         "Fig. 5: accuracy and CR with different decay functions");

  const DatasetSpec spec = DatasetSpec::small_training_proxy(26, 16);
  const SyntheticClickDataset data(spec, 41);

  const std::size_t iters = scaled(500, 2000);
  const std::size_t decay_end = iters / 2;

  auto make = [&](const std::string& label, DecayFunc func) {
    AccuracyRunConfig config;
    config.label = label;
    config.compression.codec = func == DecayFunc::kNone ? "" : "hybrid";
    config.compression.global_eb = 0.02;
    config.compression.scheduler = {.func = func,
                                    .initial_scale = 2.0,
                                    .decay_end_iter = decay_end,
                                    .num_steps = 4};
    config.iterations = iters;
    config.eval_every = iters / 8;
    return config;
  };

  std::vector<AccuracyRun> runs;
  runs.push_back(run_accuracy_experiment(data, make("fp32-baseline", DecayFunc::kNone)));
  {
    AccuracyRunConfig fixed = make("fixed-eb", DecayFunc::kNone);
    fixed.compression.codec = "hybrid";
    runs.push_back(run_accuracy_experiment(data, fixed));
  }
  runs.push_back(
      run_accuracy_experiment(data, make("stepwise", DecayFunc::kStepwise)));
  runs.push_back(run_accuracy_experiment(data,
                                         make("logarithmic", DecayFunc::kLogarithmic)));
  runs.push_back(
      run_accuracy_experiment(data, make("linear", DecayFunc::kLinear)));
  runs.push_back(run_accuracy_experiment(data,
                                         make("exponential", DecayFunc::kExponential)));

  print_runs(runs);
  std::cout << "\nexpected shape (paper Fig. 5): every decay schedule "
               "converges within noise of the baseline; schedules that hold "
               "larger bounds longer (stepwise) collect a higher CR than the "
               "fixed bound\n";
  return 0;
}
