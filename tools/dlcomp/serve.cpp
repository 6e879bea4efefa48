// `dlcomp serve`: the online-serving simulation.

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "cli.hpp"
#include "obs/obs_server.hpp"
#include "serve/simulator.hpp"

namespace dlcomp::cli {
namespace {

constexpr FlagSpec kServeFlags[] = {
    {"--pattern", "poisson|bursty|diurnal", "poisson", "query arrival process"},
    {"--qps", "X", "1000", "offered load, queries per second"},
    {"--queries", "N", "2000", "queries to serve"},
    {"--query-size", "N", "16", "mean samples per query"},
    {"--max-batch", "N", "256", "samples per batch at most"},
    {"--max-delay-ms", "X", "2", "batching deadline"},
    {"--codec", "NAME|none", "hybrid", "codec of the store's pages (none: raw pages)"},
    {"--eb", "X", "0.01", "error bound of the store's pages"},
    {"--dataset", "kaggle|terabyte|small", "small", "synthetic dataset shape"},
    {"--replicas", "N", "0", "engine replicas (0: one per hardware thread)"},
    {"--seed", "N", "2024", "query stream and model seed"},
    {"--checkpoint", "FILE", "", "serve this .dlck model instead of a fresh one"},
    {"--shards", "N", "4", "shards of the compressed store (>= 1)"},
    {"--rows-per-page", "N", "256", "sharded store: rows per compressed page"},
    {"--cache-mb", "X", "4", "sharded store: hot-row cache budget (MiB, total)"},
    {"--slo-ms", "X", "0", "shed queries whose modeled latency exceeds this (0: off)"},
    {"--metrics-port", "N", "", "serve /metrics, /healthz, /readyz, /status on 127.0.0.1 (0: ephemeral)"},
    {"--linger-ms", "N", "0", "keep the metrics server up this long after the run"},
    {"--manifest-out", "FILE", "", "write the run manifest `dlcomp obs diff` reads"},
    {"--label", "S", "serve", "manifest label"},
    {"--trace", "FILE", "", "write a Chrome trace of both runs"},
};

int cmd_serve(const ArgParser& args) {
  ServingConfig config;
  config.spec = spec_by_name(args.str("--dataset"));
  config.load.pattern = parse_arrival_pattern(args.str("--pattern"));
  config.load.qps = args.num("--qps");
  config.load.num_queries = args.uint("--queries");
  config.load.mean_query_size = args.uint("--query-size");
  config.load.max_query_size = std::max<std::size_t>(128, 8 * config.load.mean_query_size);
  config.scheduler.max_batch_samples = args.uint("--max-batch");
  config.scheduler.max_delay_s = args.num("--max-delay-ms") * 1e-3;
  config.load.seed = args.u64("--seed");
  config.seed = config.load.seed;
  config.replicas = static_cast<unsigned>(args.uint("--replicas"));
  const std::string codec = codec_flag(args);
  const double eb = args.num("--eb");
  config.store.error_bound = eb;
  config.store.codec = codec;
  config.store.rows_per_page = args.uint("--rows-per-page");
  // Checked before the cast: converting a negative, NaN or out-of-range
  // double to std::size_t is undefined behaviour.
  const double cache_bytes = args.num("--cache-mb") * 1024.0 * 1024.0;
  if (!(cache_bytes >= 0.0 && cache_bytes < 0x1p64)) {
    throw UsageError("--cache-mb must be a finite, non-negative size, got " +
                     args.str("--cache-mb"));
  }
  config.store.cache_budget_bytes = static_cast<std::size_t>(cache_bytes);
  const std::string checkpoint = args.str("--checkpoint");
  const std::size_t shards = args.uint("--shards");
  if (shards == 0) {
    throw UsageError("--shards must be at least 1 (the comparison run serves "
                     "from the sharded store)");
  }
  const double slo_ms = args.num("--slo-ms");
  if (slo_ms > 0.0) {
    config.scheduler.slo_s = slo_ms * 1e-3;
    config.scheduler.modeled_servers = std::max<std::size_t>(
        1, config.replicas > 0 ? config.replicas : std::thread::hardware_concurrency());
  }
  config.engine.checkpoint_path = checkpoint;
  begin_run(args, true);

  // Optional live observability plane: /metrics, /healthz, /readyz,
  // /status on loopback for the duration of the run (+ linger).
  MetricsRegistry live_metrics;
  StatusBoard board;
  std::mutex report_mutex;
  MetricsSnapshot last_report;  // latest end-of-run snapshot, for /metrics
  std::unique_ptr<ObservabilityServer> obs;
  if (args.has("--metrics-port")) {
    ObservabilityConfig obs_config;
    obs_config.http.port = static_cast<std::uint16_t>(args.uint("--metrics-port"));
    obs = std::make_unique<ObservabilityServer>(
        std::move(obs_config), live_metrics, board,
        [&report_mutex, &last_report] {
          std::lock_guard lock(report_mutex);
          return last_report;
        });
    obs->start();
    config.live_metrics = &live_metrics;
    config.status = &board;
    // Parsed by the CI scrape smoke test; keep the format stable.
    std::printf("metrics: http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(obs->port()));
    std::fflush(stdout);
  }

  std::printf(
      "serving %s: %zu queries, pattern=%s, offered %.0f qps, "
      "mean query size %zu, max batch %zu samples, max delay %.2f ms%s%s\n",
      config.spec.name.c_str(), config.load.num_queries,
      std::string(arrival_pattern_name(config.load.pattern)).c_str(),
      config.load.qps, config.load.mean_query_size,
      config.scheduler.max_batch_samples, config.scheduler.max_delay_s * 1e3,
      checkpoint.empty() ? "" : ", model from ",
      checkpoint.empty() ? "" : checkpoint.c_str());

  const auto serve = [&](const char* state) {
    board.set_state(state);
    ServingReport report = ServingSimulator(config).run();
    std::lock_guard lock(report_mutex);
    last_report = report.metrics;
    return report;
  };
  const ServingReport exact = serve("serving exact");

  // The comparison run: the same fleet serving from the sharded store.
  config.store.num_shards = shards;
  const ServingReport sharded = serve("serving sharded");
  board.set_state("done");
  const ShardStoreStats& s = sharded.store_stats;

  std::printf("exact:   %s\n", format_latency(exact.latency).c_str());
  std::printf("sharded: %s  (%s eb=%g)\n\n",
              format_latency(sharded.latency).c_str(),
              codec.empty() ? "none" : codec.c_str(), eb);
  const std::pair<std::string, const ServingReport*> rows[] = {
      {"exact", &exact}, {"sharded", &sharded}};
  std::printf("%s\n", format_serving_table(rows).c_str());
  std::printf(
      "achieved qps: exact %.0f, sharded %.0f (offered %.0f); "
      "sharded max lookup error %.6g (bound %g)\n",
      exact.achieved_qps, sharded.achieved_qps, exact.offered_qps,
      s.max_abs_error, eb);
  std::printf(
      "store: %zu shards, %zu rows/page, cache %zu/%zu rows resident, "
      "hit rate %.3f (%llu hits, %llu misses, %llu evictions), "
      "%llu pages decompressed, at-rest ratio %.2f\n",
      shards, config.store.rows_per_page, s.resident_rows, s.capacity_rows,
      s.hit_rate(), static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses),
      static_cast<unsigned long long>(s.evictions),
      static_cast<unsigned long long>(s.pages_loaded), s.ratio());
  if (config.scheduler.slo_s > 0.0) {
    std::printf("slo: %.2f ms, shed %zu/%zu queries (%.3f)\n", slo_ms,
                sharded.shed_queries, sharded.queries, sharded.shed_rate);
  }
  finish_run(args, "serve", sharded.metrics);

  if (obs != nullptr) {
    const auto linger_ms = args.uint("--linger-ms");
    if (linger_ms > 0) {
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
    }
    board.set_ready(false);  // drain: /readyz flips before the port dies
    obs->stop();
  }
  return 0;
}

}  // namespace

extern const Command kServe{
    "serve", "", kServeFlags, cmd_serve,
    "serves an exact baseline run, then the same queries from a sharded\n"
    "store of compressed pages behind a hot-row cache"};

}  // namespace dlcomp::cli
