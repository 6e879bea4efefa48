// Tests for the online serving subsystem: load-generator arrival
// statistics, batch-scheduler invariants, latency percentile math, and
// an exact end-to-end serving run. Compressed serving goes through the
// sharded store and is tested in test_serving_scale.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/latency_recorder.hpp"
#include "common/stats.hpp"
#include "data/synthetic.hpp"
#include "dlrm/embedding_table.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/inference_engine.hpp"
#include "serve/load_generator.hpp"
#include "serve/shard_store.hpp"
#include "serve/simulator.hpp"

namespace dlcomp {
namespace {

LoadGenConfig base_load(ArrivalPattern pattern, std::size_t n = 20000) {
  LoadGenConfig config;
  config.pattern = pattern;
  config.qps = 1000.0;
  config.num_queries = n;
  config.mean_query_size = 16;
  config.max_query_size = 256;
  config.seed = 7;
  return config;
}

double mean_rate(const std::vector<Query>& queries) {
  return static_cast<double>(queries.size()) / queries.back().arrival_s;
}

/// Coefficient of variation of inter-arrival times (1 for Poisson).
double interarrival_cv(const std::vector<Query>& queries) {
  std::vector<float> gaps(queries.size() - 1);
  for (std::size_t i = 1; i < queries.size(); ++i) {
    gaps[i - 1] = static_cast<float>(queries[i].arrival_s -
                                     queries[i - 1].arrival_s);
  }
  const Summary s = summarize(gaps);
  return s.stddev / s.mean;
}

TEST(LoadGenerator, PoissonMeanRateAndOrdering) {
  const LoadGenerator gen(base_load(ArrivalPattern::kPoisson));
  const auto queries = gen.generate();
  ASSERT_EQ(queries.size(), 20000u);

  for (std::size_t i = 1; i < queries.size(); ++i) {
    EXPECT_GE(queries[i].arrival_s, queries[i - 1].arrival_s);
    EXPECT_EQ(queries[i].id, i);
  }
  // Sample mean rate within 5% of the configured 1000 qps (stderr of the
  // exponential mean at n=20000 is ~0.7%).
  EXPECT_NEAR(mean_rate(queries), 1000.0, 50.0);
  // Poisson inter-arrivals have CV ~ 1.
  EXPECT_NEAR(interarrival_cv(queries), 1.0, 0.1);
}

TEST(LoadGenerator, BurstyMatchesMeanRateButIsOverdispersed) {
  const LoadGenerator gen(base_load(ArrivalPattern::kBursty));
  const auto queries = gen.generate();
  // MMPP is calibrated so the long-run mean equals qps.
  EXPECT_NEAR(mean_rate(queries), 1000.0, 100.0);
  // ... but inter-arrivals are strictly more variable than Poisson.
  EXPECT_GT(interarrival_cv(queries), 1.15);
}

TEST(LoadGenerator, DiurnalMatchesMeanRateAndModulates) {
  LoadGenConfig config = base_load(ArrivalPattern::kDiurnal);
  config.diurnal_period_s = 4.0;  // 20k queries at 1000 qps ~ 5 periods
  const LoadGenerator gen(config);
  const auto queries = gen.generate();
  EXPECT_NEAR(mean_rate(queries), 1000.0, 100.0);

  // Peak half-periods (sin > 0) must hold more arrivals than troughs.
  std::size_t peak = 0;
  std::size_t trough = 0;
  for (const Query& q : queries) {
    const double phase = std::fmod(q.arrival_s, config.diurnal_period_s) /
                         config.diurnal_period_s;
    (phase < 0.5 ? peak : trough) += 1;
  }
  EXPECT_GT(static_cast<double>(peak),
            1.5 * static_cast<double>(trough));
  // rate_at reflects the modulation envelope.
  EXPECT_NEAR(gen.rate_at(1.0), 1800.0, 1e-9);   // sin(pi/2) peak
  EXPECT_NEAR(gen.rate_at(3.0), 200.0, 1e-9);    // sin(3pi/2) trough
}

TEST(LoadGenerator, DeterministicAndSizeDistribution) {
  const LoadGenConfig config = base_load(ArrivalPattern::kPoisson, 5000);
  const auto a = LoadGenerator(config).generate();
  const auto b = LoadGenerator(config).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].num_samples, b[i].num_samples);
  }

  double total = 0.0;
  for (const Query& q : a) {
    EXPECT_GE(q.num_samples, 1u);
    EXPECT_LE(q.num_samples, config.max_query_size);
    total += static_cast<double>(q.num_samples);
  }
  // Geometric mean-16 sizes: sample mean within 10%.
  EXPECT_NEAR(total / static_cast<double>(a.size()), 16.0, 1.6);
}

TEST(LoadGenerator, RejectsBadConfig) {
  LoadGenConfig config = base_load(ArrivalPattern::kBursty);
  config.burst_factor = 10.0;
  config.burst_fraction = 0.2;  // factor * fraction = 2 >= 1
  EXPECT_THROW(LoadGenerator{config}, Error);
  EXPECT_THROW(parse_arrival_pattern("weekly"), Error);
  EXPECT_EQ(parse_arrival_pattern("bursty"), ArrivalPattern::kBursty);
  EXPECT_EQ(arrival_pattern_name(ArrivalPattern::kDiurnal), "diurnal");
}

TEST(BatchScheduler, InvariantsUnderPoissonLoad) {
  const auto queries = LoadGenerator(base_load(ArrivalPattern::kPoisson,
                                               10000))
                           .generate();
  BatchSchedulerConfig config;
  config.max_batch_samples = 128;
  config.max_delay_s = 0.003;
  const auto batches = BatchScheduler(config).plan(queries).batches;
  ASSERT_FALSE(batches.empty());

  std::size_t scheduled = 0;
  double prev_dispatch = 0.0;
  for (const InferenceBatch& batch : batches) {
    ASSERT_FALSE(batch.queries.empty());
    // Batches come out in dispatch order.
    EXPECT_GE(batch.dispatch_s, prev_dispatch);
    prev_dispatch = batch.dispatch_s;

    // Sample budget holds unless a single oversized query forced it.
    if (batch.queries.size() > 1) {
      EXPECT_LE(batch.total_samples(), config.max_batch_samples);
    }

    for (const Query& q : batch.queries) {
      ++scheduled;
      // Causality and the deadline budget on the simulated clock.
      EXPECT_LE(q.arrival_s, batch.dispatch_s + 1e-12);
      EXPECT_LE(batch.dispatch_s - q.arrival_s, config.max_delay_s + 1e-12);
    }
  }
  // Every query lands in exactly one batch.
  EXPECT_EQ(scheduled, queries.size());
}

TEST(BatchScheduler, DeadlineFlushAndOversizedQuery) {
  BatchSchedulerConfig config;
  config.max_batch_samples = 100;
  config.max_delay_s = 0.01;
  const BatchScheduler scheduler(config);

  // Two sparse queries farther apart than the delay budget: the first
  // must flush at its deadline, not wait for the second.
  std::vector<Query> sparse = {{0, 0.0, 10}, {1, 1.0, 10}};
  auto batches = scheduler.plan(sparse).batches;
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_DOUBLE_EQ(batches[0].dispatch_s, 0.01);
  EXPECT_DOUBLE_EQ(batches[1].dispatch_s, 1.01);

  // An oversized query ships alone, immediately.
  std::vector<Query> mixed = {{0, 0.0, 10}, {1, 0.001, 500}, {2, 0.002, 10}};
  batches = scheduler.plan(mixed).batches;
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[1].queries.size(), 1u);
  EXPECT_EQ(batches[1].total_samples(), 500u);
  EXPECT_DOUBLE_EQ(batches[1].dispatch_s, 0.001);

  EXPECT_THROW(
      (void)scheduler.plan(std::vector<Query>{{0, 1.0, 1}, {1, 0.5, 1}}),
      Error);
}

TEST(LatencyRecorder, PercentilesAgainstKnownDistribution) {
  LatencyRecorder recorder;
  // 1..1000 ms, recorded shuffled-ish (reverse order).
  for (int ms = 1000; ms >= 1; --ms) {
    recorder.record(static_cast<double>(ms) * 1e-3);
  }
  const LatencySummary s = recorder.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.p50_s, 0.500, 1e-6);
  EXPECT_NEAR(s.p95_s, 0.950, 1e-6);
  EXPECT_NEAR(s.p99_s, 0.990, 1e-6);
  EXPECT_NEAR(s.p999_s, 0.999, 1e-6);
  EXPECT_NEAR(s.max_s, 1.000, 1e-12);
  EXPECT_NEAR(s.mean_s, 0.5005, 1e-6);

  // merge() concatenates samples.
  LatencyRecorder other;
  other.record(2.0);
  recorder.merge(other);
  EXPECT_EQ(recorder.count(), 1001u);
  EXPECT_NEAR(recorder.summary().max_s, 2.0, 1e-12);
}

TEST(ServingSimulator, EndToEndExact) {
  ServingConfig config;
  config.load = base_load(ArrivalPattern::kPoisson, 300);
  config.load.qps = 2000.0;
  config.scheduler.max_batch_samples = 128;
  config.scheduler.max_delay_s = 0.002;
  config.spec = DatasetSpec::small_training_proxy(4, 16);
  config.replicas = 2;
  config.seed = 7;

  ServingReport exact = ServingSimulator(config).run();
  EXPECT_EQ(exact.queries, 300u);
  EXPECT_EQ(exact.latency.count, 300u);
  EXPECT_GT(exact.batches, 0u);
  EXPECT_GT(exact.achieved_qps, 0.0);
  EXPECT_GT(exact.samples, 0u);
  // Exact serving has no store: no ratio, no error, no store counters.
  EXPECT_DOUBLE_EQ(exact.store_stats.ratio(), 0.0);
  EXPECT_EQ(exact.metrics.value("serve/lookup_cr"), 0.0);
  EXPECT_EQ(exact.metrics.value("serve/max_lookup_error"), 0.0);
  EXPECT_FALSE(exact.metrics.has("serve/shards"));
  // Latency is at least the queueing term and every sample is finite.
  EXPECT_GE(exact.latency.p50_s, 0.0);
  EXPECT_GE(exact.latency.p999_s, exact.latency.p50_s);

  // The table renders the exact row without store columns.
  const std::pair<std::string, const ServingReport*> rows[] = {
      {"exact", &exact}};
  const std::string table = format_serving_table(rows);
  EXPECT_NE(table.find("exact"), std::string::npos);
  EXPECT_NE(table.find(" - "), std::string::npos);
}

/// What a fleet built from `config` must serve: every planned batch
/// scored in batch order by one engine whose embedding tables are
/// make_embedding_set(spec, seed), copied in, or (when config.store has
/// shards) by that engine over a store built straight from that set.
/// Returns the ServingReport::scores_crc32 such a fleet reports and fills
/// `stats` with the reference store's.
std::uint32_t reference_scores_crc32(const ServingConfig& config,
                                     ShardStoreStats& stats) {
  const std::vector<Query> queries = LoadGenerator(config.load).generate();
  const SchedulePlan plan = BatchScheduler(config.scheduler).plan(queries);
  const SyntheticClickDataset dataset(config.spec, config.seed);
  const std::vector<EmbeddingTable> tables =
      make_embedding_set(config.spec, config.seed);

  InferenceEngine engine(config.spec, config.model, EngineConfig{},
                         config.seed);
  for (std::size_t t = 0; t < tables.size(); ++t) {
    engine.model().table(t).weights() = tables[t].weights();
  }
  std::unique_ptr<ShardedEmbeddingStore> store;
  if (config.store.num_shards > 0) {
    store = std::make_unique<ShardedEmbeddingStore>(config.spec, tables,
                                                    config.store);
    engine.use_store(store.get());
  }
  std::vector<std::uint32_t> batch_crcs;
  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    const std::vector<float> probabilities = engine.run(
        dataset.make_batch(plan.batches[b].total_samples(), b));
    batch_crcs.push_back(crc32(std::as_bytes(std::span(probabilities))));
  }
  stats = store != nullptr ? store->stats() : ShardStoreStats{};
  return crc32(std::as_bytes(std::span(batch_crcs)));
}

TEST(ServingSimulator, FleetServesTheEmbeddingSetWithAndWithoutStore) {
  // Replicas draw their tables on first read: with a store only replica
  // 0's are read (to build it), without one every replica's are. Either
  // way the fleet must serve exactly the scores of the seed's embedding
  // set, and the store must hold exactly what a store over that set does.
  ServingConfig config;
  config.spec = DatasetSpec::small_training_proxy(6, 16);
  config.load = base_load(ArrivalPattern::kPoisson, 150);
  config.load.qps = 4000.0;
  config.load.mean_query_size = 8;
  config.load.max_query_size = 64;
  config.scheduler.max_batch_samples = 128;
  config.scheduler.max_delay_s = 0.002;
  config.replicas = 3;
  config.seed = 9;
  for (const std::size_t shards : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    config.store.num_shards = shards;
    config.store.rows_per_page = 64;
    config.store.codec = "hybrid";
    config.store.error_bound = 0.01;
    config.store.cache_budget_bytes = 64 << 10;

    ShardStoreStats want_stats;
    const std::uint32_t want = reference_scores_crc32(config, want_stats);
    const ServingReport report = ServingSimulator(config).run();
    EXPECT_EQ(report.scores_crc32, want);
    EXPECT_EQ(report.store_stats.input_bytes, want_stats.input_bytes);
    EXPECT_EQ(report.store_stats.stored_bytes, want_stats.stored_bytes);
    EXPECT_EQ(report.store_stats.max_abs_error, want_stats.max_abs_error);
    if (shards > 0) {
      EXPECT_GT(report.store_stats.stored_bytes, 0u);
    }
  }
}

}  // namespace
}  // namespace dlcomp
