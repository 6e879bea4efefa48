// Reproduces Fig. 8: accuracy convergence and delta-accuracy versus the
// FP32 baseline for FP16, FP8 and the paper's error-bounded hybrid
// compressor (fixed global EB 0.02, as in the paper's Sec. IV-B).

#include <iostream>

#include "bench_training.hpp"
#include "data/synthetic.hpp"

int main() {
  using namespace dlcomp;
  using namespace dlcomp::bench;
  banner("bench_fig08_accuracy_methods",
         "Fig. 8: accuracy + delta accuracy of FP32 / FP16 / FP8 / ours");

  const DatasetSpec spec = DatasetSpec::small_training_proxy(26, 16);
  const SyntheticClickDataset data(spec, 43);
  const std::size_t iters = scaled(500, 2000);

  auto make = [&](const std::string& label, const std::string& codec) {
    AccuracyRunConfig config;
    config.label = label;
    config.compression.codec = codec;
    config.compression.global_eb = 0.02;
    config.iterations = iters;
    config.eval_every = iters / 8;
    // Low-precision baselines ignore the bounds: they are fixed-ratio.
    return config;
  };

  std::vector<AccuracyRun> runs;
  runs.push_back(run_accuracy_experiment(data, make("fp32", "")));
  runs.push_back(run_accuracy_experiment(data, make("fp16", "fp16")));
  runs.push_back(run_accuracy_experiment(data, make("fp8", "fp8")));
  runs.push_back(run_accuracy_experiment(data, make("ours-eb0.02", "hybrid")));

  print_runs(runs);

  std::cout << "\ndelta-accuracy curves (percentage points vs fp32):\n";
  TablePrinter delta({"iter", "fp16", "fp8", "ours-eb0.02"});
  for (std::size_t p = 0; p < runs[0].curve.size(); ++p) {
    const double base = runs[0].curve[p].eval_accuracy;
    delta.add_row(
        {std::to_string(runs[0].curve[p].iter),
         TablePrinter::num((runs[1].curve[p].eval_accuracy - base) * 100, 3),
         TablePrinter::num((runs[2].curve[p].eval_accuracy - base) * 100, 3),
         TablePrinter::num((runs[3].curve[p].eval_accuracy - base) * 100, 3)});
  }
  delta.print(std::cout);
  std::cout << "paper: average prediction accuracy loss of ours = 0.0031% "
               "(Kaggle) / 0.0042% (Terabyte) -- well inside the 0.02% "
               "production tolerance; FP8 drifts visibly lower\n"
            << "expected shape: ours tracks fp32 within noise; fp8 is the "
               "worst curve\n";
  return 0;
}
