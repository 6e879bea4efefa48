#include "serve/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/table_printer.hpp"
#include "common/timer.hpp"
#include "data/synthetic.hpp"
#include "obs/obs_server.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp {

ServingSimulator::ServingSimulator(ServingConfig config)
    : config_(std::move(config)) {
  // Fail fast on bad knobs; run() reconstructs these cheaply.
  (void)LoadGenerator(config_.load);
  (void)BatchScheduler(config_.scheduler);
  DLCOMP_CHECK(config_.spec.num_tables() > 0);
}

ServingReport ServingSimulator::run() {
  const LoadGenerator generator(config_.load);
  const BatchScheduler scheduler(config_.scheduler);
  const std::vector<Query> queries = generator.generate();
  const SchedulePlan sched_plan = scheduler.plan(queries);
  const std::vector<InferenceBatch>& batches = sched_plan.batches;

  unsigned replicas = config_.replicas;
  if (replicas == 0) {
    replicas = std::max(1u, std::thread::hardware_concurrency());
  }
  replicas = std::min<unsigned>(
      replicas, static_cast<unsigned>(std::max<std::size_t>(1, batches.size())));

  const SyntheticClickDataset dataset(config_.spec, config_.seed);

  // One engine replica per worker; identical weights (same seed), private
  // forward caches, so the fleet scores concurrently without locking.
  // A checkpoint is read and chain-replayed once here, then applied to
  // every replica, instead of once per engine constructor.
  std::vector<InferenceEngine> engines;
  engines.reserve(replicas);
  for (unsigned r = 0; r < replicas; ++r) {
    engines.emplace_back(config_.spec, config_.model, EngineConfig{},
                         config_.seed);
  }
  if (!config_.engine.checkpoint_path.empty()) {
    ThreadPool decode_pool;
    const LoadedCheckpoint loaded =
        CheckpointReader(&decode_pool).load(config_.engine.checkpoint_path);
    for (InferenceEngine& engine : engines) {
      apply_model_state(loaded, make_model_state(engine.model()));
    }
  }

  // Sharded tier: one store built from replica 0's (now checkpoint-loaded)
  // tables, shared by every engine. Built after weight loading so the
  // fleet serves the trained embeddings, and with a temporary pool so the
  // page compression runs parallel (stored bytes are pool-invariant).
  // Only replica 0's tables are ever read then, so only they are drawn.
  // Table-local serving reads every replica's tables: they are drawn
  // here, so no draw lands inside the timed run.
  std::unique_ptr<ShardedEmbeddingStore> store;
  if (config_.store.num_shards > 0) {
    ThreadPool build_pool;
    store = std::make_unique<ShardedEmbeddingStore>(
        config_.spec, engines.front().model().tables(), config_.store,
        &build_pool);
    for (InferenceEngine& engine : engines) engine.use_store(store.get());
  } else {
    for (InferenceEngine& engine : engines) (void)engine.model().tables();
  }

  std::vector<LatencyRecorder> recorders(replicas);
  std::vector<double> service_seconds(replicas, 0.0);
  std::vector<std::uint32_t> batch_crcs(batches.size(), 0);

  // Live-scrape instruments, resolved once before the hot loop (lookup
  // takes the registry mutex; updates are lock-free).
  Counter* live_queries = nullptr;
  Counter* live_batches = nullptr;
  HistogramMetric* live_latency = nullptr;
  if (config_.live_metrics != nullptr) {
    live_queries = &config_.live_metrics->counter("serve/queries_done");
    live_batches = &config_.live_metrics->counter("serve/batches_done");
    live_latency = &config_.live_metrics->histogram(
        "serve/latency_s", LatencyRecorder::default_buckets());
    if (store != nullptr) {
      store->bind_live_counters(
          &config_.live_metrics->counter("serve/cache_hits"),
          &config_.live_metrics->counter("serve/cache_misses"),
          &config_.live_metrics->counter("serve/pages_decompressed"));
    }
  }
  if (config_.status != nullptr) {
    config_.status->set_total_iterations(batches.size());
    config_.status->set_ready(true);  // fleet built: safe to scrape
  }

  // Per-run progress for the status board (the registry counters are
  // monotonic across runs; /status wants this run's position).
  std::atomic<std::uint64_t> run_batches{0};
  std::atomic<std::uint64_t> run_queries{0};

  ThreadPool pool(replicas);
  WallTimer wall;
  for (unsigned r = 0; r < replicas; ++r) {
    pool.submit([&, r] {
      InferenceEngine& engine = engines[r];
      LatencyRecorder& recorder = recorders[r];
      // Round-robin assignment keeps the plan deterministic and the
      // per-replica load balanced.
      for (std::size_t b = r; b < batches.size(); b += replicas) {
        DLCOMP_TRACE_SPAN("serve/batch");
        const InferenceBatch& batch = batches[b];
        const SampleBatch samples =
            dataset.make_batch(batch.total_samples(), b);
        WallTimer t;
        const std::vector<float> probabilities = engine.run(samples);
        const double service_s = t.seconds();
        batch_crcs[b] = crc32(std::as_bytes(std::span(probabilities)));
        service_seconds[r] += service_s;
        for (const Query& q : batch.queries) {
          const double latency_s =
              batch.dispatch_s - q.arrival_s + service_s;
          recorder.record(latency_s);
          if (live_latency != nullptr) live_latency->observe(latency_s);
        }
        if (live_queries != nullptr) {
          live_queries->add(batch.queries.size());
        }
        if (live_batches != nullptr) live_batches->add(1);
        if (config_.status != nullptr) {
          const std::uint64_t done =
              run_batches.fetch_add(1, std::memory_order_relaxed) + 1;
          const std::uint64_t queries_done =
              run_queries.fetch_add(batch.queries.size(),
                                    std::memory_order_relaxed) +
              batch.queries.size();
          const double elapsed = wall.seconds();
          const double qps =
              elapsed > 0.0 ? static_cast<double>(queries_done) / elapsed
                            : 0.0;
          config_.status->heartbeat(done, qps);
        }
      }
    });
  }
  pool.wait_idle();
  const double serve_wall_s = wall.seconds();
  // Throughput counts only forward-pass time: the slowest replica's busy
  // time bounds the fleet, and synthetic batch generation is a simulator
  // artifact a real server would not pay.
  const double busiest_replica_s =
      *std::max_element(service_seconds.begin(), service_seconds.end());

  LatencyRecorder merged;
  for (const LatencyRecorder& r : recorders) merged.merge(r);

  const std::size_t served_queries = queries.size() - sched_plan.shed.size();

  ServingReport report;
  report.latency = merged.summary();
  report.offered_qps = config_.load.qps;
  report.achieved_qps =
      busiest_replica_s > 0.0
          ? static_cast<double>(served_queries) / busiest_replica_s
          : 0.0;
  report.queries = queries.size();
  report.shed_queries = sched_plan.shed.size();
  report.shed_rate = queries.empty()
                         ? 0.0
                         : static_cast<double>(report.shed_queries) /
                               static_cast<double>(queries.size());
  report.batches = batches.size();
  report.scores_crc32 = crc32(std::as_bytes(std::span(batch_crcs)));
  report.serve_wall_s = serve_wall_s;
  report.sim_span_s = queries.empty() ? 0.0 : queries.back().arrival_s;

  std::size_t samples = 0;
  for (const InferenceBatch& b : batches) samples += b.total_samples();
  report.samples = samples;
  report.mean_batch_samples =
      batches.empty() ? 0.0
                      : static_cast<double>(samples) /
                            static_cast<double>(batches.size());

  double service_total = 0.0;
  for (const double s : service_seconds) service_total += s;
  report.mean_service_s =
      batches.empty() ? 0.0
                      : service_total / static_cast<double>(batches.size());

  if (store != nullptr) report.store_stats = store->stats();

  // ---- Metrics snapshot: exact latency percentiles from the merged
  // recorder (live /metrics scrapes read the registry histogram), plus
  // queue depth and the fleet counters.
  MetricsSnapshot& snap = report.metrics;
  merged.snapshot_to(snap, "serve/latency_s");
  HistogramMetric depth_hist(HistogramBuckets::exponential(1.0, 2.0, 16));
  for (const InferenceBatch& b : batches) {
    depth_hist.observe(static_cast<double>(b.queries.size()));
  }
  snapshot_histogram(snap, "serve/queue_depth", depth_hist);
  snap.set("serve/queries", static_cast<double>(report.queries));
  snap.set("serve/batches", static_cast<double>(report.batches));
  snap.set("serve/samples", static_cast<double>(report.samples));
  snap.set("serve/replicas", static_cast<double>(replicas));
  snap.set("serve/offered_qps", report.offered_qps);
  snap.set("serve/achieved_qps", report.achieved_qps);
  snap.set("serve/serve_wall_s", report.serve_wall_s);
  snap.set("serve/mean_service_s", report.mean_service_s);
  snap.set("serve/max_lookup_error", report.store_stats.max_abs_error);
  snap.set("serve/lookup_cr", report.store_stats.ratio());
  snap.set("serve/shed_queries", static_cast<double>(report.shed_queries));
  snap.set("serve/shed_rate", report.shed_rate);
  if (store != nullptr) {
    const ShardStoreStats& s = report.store_stats;
    snap.set("serve/shards", static_cast<double>(config_.store.num_shards));
    snap.set("serve/cache_hits", static_cast<double>(s.hits));
    snap.set("serve/cache_misses", static_cast<double>(s.misses));
    snap.set("serve/cache_hit_rate", s.hit_rate());
    snap.set("serve/cache_evictions", static_cast<double>(s.evictions));
    snap.set("serve/cache_resident_rows",
             static_cast<double>(s.resident_rows));
    snap.set("serve/cache_capacity_rows",
             static_cast<double>(s.capacity_rows));
    snap.set("serve/cache_budget_bytes",
             static_cast<double>(config_.store.cache_budget_bytes));
    snap.set("serve/pages_decompressed",
             static_cast<double>(s.pages_loaded));
    snap.set("serve/store_input_bytes", static_cast<double>(s.input_bytes));
    snap.set("serve/store_stored_bytes",
             static_cast<double>(s.stored_bytes));
    snap.set("serve/store_cr", s.ratio());
  }
  return report;
}

std::string format_serving_table(
    std::span<const std::pair<std::string, const ServingReport*>> rows) {
  TablePrinter table({"path", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms",
                      "mean ms", "achieved qps", "batch", "ratio",
                      "max err"});
  const auto row = [&](const std::string& name, const ServingReport& r) {
    table.add_row({name, TablePrinter::num(r.latency.p50_s * 1e3, 3),
                   TablePrinter::num(r.latency.p95_s * 1e3, 3),
                   TablePrinter::num(r.latency.p99_s * 1e3, 3),
                   TablePrinter::num(r.latency.p999_s * 1e3, 3),
                   TablePrinter::num(r.latency.mean_s * 1e3, 3),
                   TablePrinter::num(r.achieved_qps, 0),
                   TablePrinter::num(r.mean_batch_samples, 1),
                   r.store_stats.ratio() > 0.0
                       ? TablePrinter::num(r.store_stats.ratio(), 2)
                       : std::string("-"),
                   r.store_stats.ratio() > 0.0
                       ? TablePrinter::num(r.store_stats.max_abs_error, 5)
                       : std::string("-")});
  };
  for (const auto& [name, report] : rows) row(name, *report);
  return table.to_string();
}

}  // namespace dlcomp
