// Serving-latency bench: tail latency and throughput of the online
// inference subsystem across query arrival patterns, comparing exact
// embedding serving against serving from a 4-shard store of
// error-bounded compressed pages (the DeepRecSys-style workload the
// ROADMAP's "heavy traffic" north star calls for, with the paper's
// codecs on the stored embeddings).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/arg_parser.hpp"
#include "common/latency_recorder.hpp"
#include "common/table_printer.hpp"
#include "serve/simulator.hpp"

namespace {

using namespace dlcomp;

struct CodecPath {
  const char* label;
  const char* codec;  // "" = exact (no store)
  double eb;
};

/// Shards of the compressed store, as in bench_serving_scale.
constexpr std::size_t kShards = 4;

/// Prefixes one pattern x path cell's snapshot into the combined dump.
void merge_cell_metrics(MetricsSnapshot& all, const MetricsSnapshot& cell,
                        const std::string& prefix) {
  for (const auto& [key, value] : cell.values) {
    all.set(prefix + "/" + key, value);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv, 1, {"--metrics"});
  bench::banner("bench_serving_latency",
                "online serving extension (DeepRecSys-style load, "
                "compressed embedding payloads)");

  const std::size_t queries = bench::scaled(2000, 20000);

  ServingConfig base;
  base.load.qps = 2000.0;
  base.load.num_queries = queries;
  base.load.mean_query_size = 16;
  base.load.max_query_size = 128;
  base.scheduler.max_batch_samples = 256;
  base.scheduler.max_delay_s = 0.002;
  base.spec = DatasetSpec::small_training_proxy(26, 16);
  base.seed = 1234;

  const ArrivalPattern patterns[] = {ArrivalPattern::kPoisson,
                                     ArrivalPattern::kBursty,
                                     ArrivalPattern::kDiurnal};
  const CodecPath paths[] = {
      {"exact", "", 0.0},
      {"hybrid eb=0.01", "hybrid", 0.01},
      {"hybrid eb=0.05", "hybrid", 0.05},
      {"fp16", "fp16", 0.0},
  };

  TablePrinter table({"pattern", "path", "p50 ms", "p95 ms", "p99 ms",
                      "p99.9 ms", "achieved qps", "batch", "ratio",
                      "max err"});
  MetricsSnapshot all_metrics;
  for (const ArrivalPattern pattern : patterns) {
    for (const CodecPath& path : paths) {
      ServingConfig config = base;
      config.load.pattern = pattern;
      if (*path.codec != '\0') {
        config.store.num_shards = kShards;
        config.store.codec = path.codec;
        config.store.error_bound = path.eb;
      }
      const ServingReport r = ServingSimulator(config).run();
      std::string cell = path.label;  // "hybrid eb=0.01" -> "hybrid_eb_0.01"
      for (char& c : cell) {
        if (c == ' ' || c == '=') c = '_';
      }
      merge_cell_metrics(all_metrics, r.metrics,
                         std::string(arrival_pattern_name(pattern)) + "/" +
                             cell);
      table.add_row(
          {std::string(arrival_pattern_name(pattern)), path.label,
           TablePrinter::num(r.latency.p50_s * 1e3, 3),
           TablePrinter::num(r.latency.p95_s * 1e3, 3),
           TablePrinter::num(r.latency.p99_s * 1e3, 3),
           TablePrinter::num(r.latency.p999_s * 1e3, 3),
           TablePrinter::num(r.achieved_qps, 0),
           TablePrinter::num(r.mean_batch_samples, 1),
           r.store_stats.ratio() > 0.0
               ? TablePrinter::num(r.store_stats.ratio(), 2)
               : std::string("-"),
           r.store_stats.ratio() > 0.0
               ? TablePrinter::num(r.store_stats.max_abs_error, 5)
               : std::string("-")});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "latency = simulated queueing delay + measured forward wall time; "
      "achieved qps = served queries / busiest replica's forward time.\n"
      "compressed rows serve from a %zu-shard store, so their forward time "
      "includes store page decodes and hot-cache hits.\n",
      kShards);
  bench::dump_metrics(args.str("--metrics"), all_metrics);
  return 0;
}
