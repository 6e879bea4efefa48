// Ablation of the dual-level adaptive strategy (this repo's addition;
// DESIGN.md calls for ablating the design choices): compare
//   (a) fixed global error bound        -- no adaptation
//   (b) table-wise only                 -- Homo-Index classes, no decay
//   (c) iteration-wise only             -- step-wise decay, global bound
//   (d) dual-level                      -- the paper's full strategy
// on accuracy and compression ratio. The paper evaluates (b) and (c)
// separately (Figs. 9 and 10); this bench shows they compose.

#include <iostream>

#include "bench_training.hpp"
#include "core/offline_analyzer.hpp"
#include "data/synthetic.hpp"

int main() {
  using namespace dlcomp;
  using namespace dlcomp::bench;
  banner("bench_ablation_dual_level",
         "ablation: fixed vs table-wise vs iteration-wise vs dual-level");

  const DatasetSpec spec = DatasetSpec::small_training_proxy(26, 16);
  const SyntheticClickDataset data(spec, 59);
  const std::size_t iters = scaled(500, 2000);

  const auto tables = make_embedding_set(spec, 77);
  AnalyzerConfig analyzer_config;
  analyzer_config.sample_batches = 2;
  const AnalysisReport report =
      OfflineAnalyzer(analyzer_config).analyze(data, tables);
  const auto table_eb = report.table_error_bounds();

  const SchedulerConfig decay{.func = DecayFunc::kStepwise,
                              .initial_scale = 2.0,
                              .decay_end_iter = iters / 2,
                              .num_steps = 4};

  auto base = [&](const std::string& label) {
    AccuracyRunConfig config;
    config.label = label;
    config.compression.codec = "hybrid";
    config.compression.global_eb = 0.03;
    config.iterations = iters;
    config.eval_every = iters / 8;
    return config;
  };

  std::vector<AccuracyRun> runs;
  {
    AccuracyRunConfig config = base("fp32-baseline");
    config.compression.codec.clear();
    runs.push_back(run_accuracy_experiment(data, config));
  }
  runs.push_back(run_accuracy_experiment(data, base("fixed-global")));
  {
    AccuracyRunConfig config = base("table-wise-only");
    config.compression.table_eb = table_eb;
    runs.push_back(run_accuracy_experiment(data, config));
  }
  {
    AccuracyRunConfig config = base("iter-wise-only");
    config.compression.scheduler = decay;
    runs.push_back(run_accuracy_experiment(data, config));
  }
  {
    AccuracyRunConfig config = base("dual-level");
    config.compression.table_eb = table_eb;
    config.compression.scheduler = decay;
    runs.push_back(run_accuracy_experiment(data, config));
  }
  print_runs(runs);

  std::cout << "\nCR vs fixed-global: table-wise "
            << TablePrinter::num(runs[2].forward_cr / runs[1].forward_cr, 2)
            << "x, iter-wise "
            << TablePrinter::num(runs[3].forward_cr / runs[1].forward_cr, 2)
            << "x, dual-level "
            << TablePrinter::num(runs[4].forward_cr / runs[1].forward_cr, 2)
            << "x\n"
            << "expected shape: the two levels contribute independently and "
               "the dual-level run collects the largest CR at unchanged "
               "accuracy -- the paper's central claim\n";
  return 0;
}
