#pragma once

/// \file simulator.hpp
/// End-to-end serving harness tying the subsystem together: a
/// LoadGenerator produces the query stream, a BatchScheduler turns it
/// into an arrival-faithful dispatch plan, and a fleet of InferenceEngine
/// replicas executes the plan on the ThreadPool while worker-local
/// LatencyRecorders capture per-query latency.
///
/// Time model: queueing delay (arrival -> dispatch) lives on the
/// simulated clock driven by the generated arrival process; service time
/// is the measured wall time of the real forward pass on this machine.
/// A query's reported latency is the sum of the two. Replicas are assumed
/// plentiful enough that a dispatched batch starts immediately (no
/// replica queueing term); achieved QPS reports the fleet's measured
/// scoring throughput against the offered load.

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/latency_recorder.hpp"
#include "data/dataset_spec.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/inference_engine.hpp"
#include "serve/load_generator.hpp"
#include "serve/shard_store.hpp"

namespace dlcomp {

class MetricsRegistry;
class StatusBoard;

struct ServingConfig {
  LoadGenConfig load;
  BatchSchedulerConfig scheduler;
  EngineConfig engine;
  /// Sharded serving tier, the one compressed serving path: when
  /// store.num_shards > 0 one ShardedEmbeddingStore is built from replica
  /// 0's (checkpoint-loaded) tables and shared by the whole fleet — every
  /// engine routes lookups through it (hot cache over compressed pages)
  /// instead of its own weights. 0 serves exactly from the weights. The
  /// scheduler's SLO admission (scheduler.slo_s) composes independently.
  ShardStoreConfig store;
  /// Workload shapes (tables, dims) the engines serve.
  DatasetSpec spec;
  DlrmConfig model;
  /// Engine replicas (and pool workers); 0 = hardware concurrency.
  unsigned replicas = 0;
  std::uint64_t seed = 2024;

  /// Optional live-observability wiring (both may stay null; when set
  /// they must outlive run()). `live_metrics` receives per-query latency
  /// observations and progress counters while the fleet is scoring --
  /// this is what a /metrics scrape sees mid-run, as opposed to the
  /// end-of-run ServingReport snapshot. `status` gets a ready=true flip
  /// once the replica fleet is built, plus per-batch heartbeats.
  MetricsRegistry* live_metrics = nullptr;
  StatusBoard* status = nullptr;
};

struct ServingReport {
  LatencySummary latency;        ///< queueing + service, per query
  double offered_qps = 0.0;      ///< configured mean arrival rate
  /// Scoring throughput: queries / busiest replica's forward-pass time
  /// (synthetic batch generation, a simulator artifact, is excluded).
  double achieved_qps = 0.0;
  std::size_t queries = 0;
  std::size_t samples = 0;       ///< candidate items scored
  std::size_t batches = 0;
  double mean_batch_samples = 0.0;
  /// Wall time of the whole parallel run, batch generation included.
  double serve_wall_s = 0.0;
  double sim_span_s = 0.0;       ///< simulated arrival span of the stream
  double mean_service_s = 0.0;   ///< mean per-batch forward wall time

  /// SLO admission (0 unless scheduler.slo_s > 0).
  std::size_t shed_queries = 0;
  double shed_rate = 0.0;  ///< shed / offered

  /// CRC-32 over every batch's CRC-32 of its served probabilities, in
  /// batch order: independent of replica count and scheduling, so two
  /// fleets serving the same scores report the same value.
  std::uint32_t scores_crc32 = 0;

  /// Sharded-store telemetry (all 0 when store.num_shards == 0): the
  /// at-rest ratio (ratio()) and reconstruction error (max_abs_error) of
  /// the compressed rows served, plus cache and page-decode counters.
  ShardStoreStats store_stats;

  /// Machine-readable telemetry under "serve/": the merged latency
  /// recorder as a histogram metric (quantiles via the shared
  /// nearest-rank estimator), per-batch queue depth, byte/query/batch
  /// counters and the throughput gauges.
  MetricsSnapshot metrics;
};

class ServingSimulator {
 public:
  /// Validates the config and builds the replica fleet (identical model
  /// weights in every replica, deterministic in config.seed).
  explicit ServingSimulator(ServingConfig config);

  /// Runs the full pipeline once and reports. Deterministic stream and
  /// batching; wall-time figures vary with the machine.
  [[nodiscard]] ServingReport run();

  [[nodiscard]] const ServingConfig& config() const noexcept {
    return config_;
  }

 private:
  ServingConfig config_;
};

/// Renders a comparison table with caller-chosen row labels (e.g. "exact"
/// vs "sharded"): latency percentiles, achieved QPS, batch size, and the
/// store's compression ratio and max error ("-" for exact rows).
std::string format_serving_table(
    std::span<const std::pair<std::string, const ServingReport*>> rows);

}  // namespace dlcomp
