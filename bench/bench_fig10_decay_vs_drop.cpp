// Reproduces Fig. 10: gradual step-wise decay versus abrupt drop of the
// error bound, starting from 2x and 3x the conservative bound. The paper
// finds gradual decay converges while collecting 1.09x / 1.03x more CR
// than the drop strategy (1.32x / 1.06x over the fixed bound).

#include <iostream>

#include "bench_training.hpp"
#include "data/synthetic.hpp"

int main() {
  using namespace dlcomp;
  using namespace dlcomp::bench;
  banner("bench_fig10_decay_vs_drop",
         "Fig. 10: stepwise decay vs abrupt drop at 2x and 3x base EB");

  const DatasetSpec spec = DatasetSpec::small_training_proxy(26, 16);
  const SyntheticClickDataset data(spec, 53);
  const std::size_t iters = scaled(500, 2000);
  const std::size_t decay_end = iters / 2;

  auto make = [&](const std::string& label, DecayFunc func, double scale) {
    AccuracyRunConfig config;
    config.label = label;
    config.compression.codec = "hybrid";
    config.compression.global_eb = 0.02;
    config.compression.scheduler = {.func = func,
                                    .initial_scale = scale,
                                    .decay_end_iter = decay_end,
                                    .num_steps = 4};
    config.iterations = iters;
    config.eval_every = iters / 8;
    return config;
  };

  std::vector<AccuracyRun> runs;
  {
    AccuracyRunConfig baseline;
    baseline.label = "fixed-eb";
    baseline.compression.codec = "hybrid";
    baseline.compression.global_eb = 0.02;
    baseline.iterations = iters;
    baseline.eval_every = iters / 8;
    runs.push_back(run_accuracy_experiment(data, baseline));
  }
  runs.push_back(run_accuracy_experiment(data,
                                         make("decay_2x", DecayFunc::kStepwise, 2.0)));
  runs.push_back(
      run_accuracy_experiment(data, make("drop_2x", DecayFunc::kDrop, 2.0)));
  runs.push_back(run_accuracy_experiment(data,
                                         make("decay_3x", DecayFunc::kStepwise, 3.0)));
  runs.push_back(
      run_accuracy_experiment(data, make("drop_3x", DecayFunc::kDrop, 3.0)));
  print_runs(runs);

  std::cout << "\nCR ratios: decay_2x/fixed = "
            << TablePrinter::num(runs[1].forward_cr / runs[0].forward_cr, 2)
            << "x, decay_3x/fixed = "
            << TablePrinter::num(runs[3].forward_cr / runs[0].forward_cr, 2)
            << "x\n"
            << "paper: the decay strategy nets 1.32x / 1.06x CR over the "
               "fixed bound, and 1.09x / 1.03x over what the drop strategy "
               "can safely deliver\n"
            << "expected shape: decay variants converge like the baseline "
               "while collecting extra CR from the loose-bound phase; the "
               "drop variants hold the loose bound longest (highest raw CR) "
               "but are the convergence risk the paper rejects -- watch "
               "their mid-training accuracy dip relative to decay\n";
  return 0;
}
