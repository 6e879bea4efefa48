// Automated error-bound selection (the paper's future-work item): probe
// candidate global bounds with short hybrid-parallel training runs,
// select the most generous one whose held-out accuracy stays within
// tolerance, and save the resulting plan.
//
//   ./build/example_auto_tuning

#include <cstdio>

#include "core/auto_tuner.hpp"
#include "core/offline_analyzer.hpp"
#include "core/report_io.hpp"
#include "data/synthetic.hpp"

int main() {
  using namespace dlcomp;

  const DatasetSpec spec = DatasetSpec::small_training_proxy(8, 8);
  const SyntheticClickDataset dataset(spec, 77);

  // --- Offline: probe-search the global error bound -------------------
  AutoTunerConfig config;
  config.candidates = {0.08, 0.05, 0.03, 0.02, 0.01};
  config.accuracy_tolerance = 0.01;  // within 1 pp of the FP32 probe
  config.probe_iterations = 120;
  config.model.bottom_hidden = {16};
  config.model.top_hidden = {16};
  config.model.learning_rate = 0.2f;

  const AutoTunerResult result = auto_select_global_eb(dataset, config);
  std::printf("baseline probe accuracy: %.2f%%\n",
              result.baseline_accuracy * 100);
  for (const auto& probe : result.probes) {
    std::printf("  eb %.3f -> accuracy %.2f%%  CR %.1fx  %s\n",
                probe.error_bound, probe.accuracy * 100,
                probe.compression_ratio,
                probe.within_tolerance ? "OK" : "too lossy");
  }
  std::printf("selected global error bound: %.3f\n\n", result.selected_eb);

  // --- Persist the full plan for the training jobs --------------------
  const auto tables = make_embedding_set(spec, 77);
  AnalyzerConfig analyzer_config;
  analyzer_config.sample_batches = 2;
  analyzer_config.eb_config.global_eb = result.selected_eb;
  const AnalysisReport report =
      OfflineAnalyzer(analyzer_config).analyze(dataset, tables);
  const CompressionPlan plan = make_plan(report);
  save_plan("/tmp/dlcomp_plan.txt", plan);
  std::printf("plan written to /tmp/dlcomp_plan.txt:\n%s\n",
              plan_to_string(plan).c_str());
  return 0;
}
