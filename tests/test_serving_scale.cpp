// Tests for the sharded serving tier: CLOCK hot-cache hit/miss/eviction
// traces, exact byte-budget boundaries, paged cold-tier determinism, the
// scatter/gather bitwise-identity contract (sharded == whole-table ==
// direct lookup at equal error bounds), SLO shed at saturation, the
// model-zoo interaction variants, and an end-to-end sharded simulator
// run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compress/paged.hpp"
#include "compress/registry.hpp"
#include "data/synthetic.hpp"
#include "dlrm/embedding_table.hpp"
#include "dlrm/model.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/hot_cache.hpp"
#include "serve/inference_engine.hpp"
#include "serve/router.hpp"
#include "serve/shard_store.hpp"
#include "serve/simulator.hpp"

namespace dlcomp {
namespace {

std::vector<float> row_of(std::size_t dim, float fill) {
  return std::vector<float>(dim, fill);
}

// ---------------------------------------------------------------- cache

TEST(HotRowCache, DeterministicHitMissTrace) {
  constexpr std::size_t kDim = 4;
  // Budget for exactly 2 slots.
  HotRowCache cache(2 * HotRowCache::slot_bytes(kDim), kDim);
  ASSERT_EQ(cache.capacity_rows(), 2u);

  // Fixed probe/insert trace; every outcome below is pinned.
  EXPECT_EQ(cache.find(1), nullptr);  // miss
  cache.insert(1, row_of(kDim, 1.0f));
  EXPECT_EQ(cache.find(2), nullptr);  // miss
  cache.insert(2, row_of(kDim, 2.0f));
  ASSERT_NE(cache.find(1), nullptr);  // hit, sets ref bit on 1
  EXPECT_EQ(cache.find(1)[0], 1.0f);

  // Full: inserting 3 runs the CLOCK sweep. Slot fill order was 1 then 2;
  // both slots carry the reference bit from insert, key 1 also re-set by
  // the hits above. The sweep clears both bits in one lap and evicts the
  // slot the hand started at (slot 0, key 1).
  cache.insert(3, row_of(kDim, 3.0f));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(1), nullptr);  // evicted
  ASSERT_NE(cache.find(2), nullptr);  // survived
  ASSERT_NE(cache.find(3), nullptr);
  EXPECT_EQ(cache.find(3)[0], 3.0f);

  // Second-chance: 2 and 3 are now referenced (the hits above). Touch
  // nothing else; inserting 4 must clear both and evict slot 1 (key 2, the
  // hand's position after the last eviction).
  cache.insert(4, row_of(kDim, 4.0f));
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(3), nullptr);
  ASSERT_NE(cache.find(4), nullptr);

  // Counts are exact, not approximate: 4 misses, 7 hits so far.
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 7u);
}

TEST(HotRowCache, ExactBudgetBoundaries) {
  constexpr std::size_t kDim = 8;
  const std::size_t slot = HotRowCache::slot_bytes(kDim);

  // One byte short of N slots holds N-1 rows; exactly N bytes holds N.
  EXPECT_EQ(HotRowCache(3 * slot - 1, kDim).capacity_rows(), 2u);
  EXPECT_EQ(HotRowCache(3 * slot, kDim).capacity_rows(), 3u);
  EXPECT_EQ(HotRowCache(3 * slot + slot - 1, kDim).capacity_rows(), 3u);

  // Below one slot the cache is disabled: probes miss, inserts drop.
  HotRowCache disabled(slot - 1, kDim);
  EXPECT_FALSE(disabled.enabled());
  disabled.insert(7, row_of(kDim, 7.0f));
  EXPECT_EQ(disabled.find(7), nullptr);
  EXPECT_EQ(disabled.size_rows(), 0u);
  EXPECT_EQ(disabled.evictions(), 0u);
}

TEST(HotRowCache, InsertAtCapacityEvictsExactlyOne) {
  constexpr std::size_t kDim = 4;
  HotRowCache cache(4 * HotRowCache::slot_bytes(kDim), kDim);
  for (std::uint64_t k = 0; k < 4; ++k) cache.insert(k, row_of(kDim, 1.0f));
  EXPECT_EQ(cache.size_rows(), 4u);
  EXPECT_EQ(cache.evictions(), 0u);
  for (std::uint64_t k = 4; k < 20; ++k) {
    cache.insert(k, row_of(kDim, 2.0f));
    EXPECT_EQ(cache.size_rows(), 4u);  // never exceeds the budget
    EXPECT_EQ(cache.evictions(), k - 3);  // exactly one victim per insert
  }
  // Re-inserting a cached key refreshes instead of evicting.
  const std::uint64_t evictions = cache.evictions();
  cache.insert(19, row_of(kDim, 9.0f));
  EXPECT_EQ(cache.evictions(), evictions);
  ASSERT_NE(cache.find(19), nullptr);
  EXPECT_EQ(cache.find(19)[0], 9.0f);
}

// ------------------------------------------------------------- cold tier

TEST(PagedRowStore, RawStoreIsBitwiseIdenticalAndDeterministic) {
  Rng rng(99);
  Matrix rows(1000, 16);
  for (auto& v : rows.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));

  PagedStoreConfig config;
  config.rows_per_page = 256;
  const PagedRowStore store(rows, config);
  EXPECT_EQ(store.num_pages(), 4u);
  EXPECT_EQ(store.page_rows(3), 1000u - 3 * 256u);  // partial tail page
  EXPECT_EQ(store.max_abs_error(), 0.0);

  CompressionWorkspace ws;
  std::vector<float> page(store.rows_per_page() * store.dim());
  for (std::size_t p = 0; p < store.num_pages(); ++p) {
    const std::size_t count = store.page_rows(p) * store.dim();
    const std::span<float> out(page.data(), count);
    store.load_page(p, out, ws);
    EXPECT_EQ(std::memcmp(page.data(),
                          rows.data() + store.page_first_row(p) * store.dim(),
                          count * sizeof(float)),
              0);
  }
}

TEST(PagedRowStore, CodecPagesReloadIdenticallyWithinBound) {
  Rng rng(7);
  Matrix rows(600, 16);
  for (auto& v : rows.flat()) v = static_cast<float>(rng.normal(0.0, 0.5));

  PagedStoreConfig config;
  config.codec = &get_compressor("hybrid");
  config.params.error_bound = 0.01;
  config.params.eb_mode = EbMode::kAbsolute;
  config.rows_per_page = 128;
  const PagedRowStore store(rows, config);
  EXPECT_GT(store.stored_bytes(), 0u);
  EXPECT_LT(store.stored_bytes(), store.input_bytes());
  EXPECT_LE(store.max_abs_error(), 0.01 + 1e-7);

  // Every load of the same page reconstructs identical bytes, within the
  // bound of the original.
  CompressionWorkspace ws;
  std::vector<float> a(128 * 16);
  std::vector<float> b(128 * 16);
  for (std::size_t p = 0; p < store.num_pages(); ++p) {
    const std::size_t count = store.page_rows(p) * store.dim();
    store.load_page(p, std::span<float>(a.data(), count), ws);
    store.load_page(p, std::span<float>(b.data(), count), ws);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), count * sizeof(float)), 0);
    const float* exact = rows.data() + store.page_first_row(p) * store.dim();
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_LE(std::abs(a[i] - exact[i]), 0.01 + 1e-7);
    }
  }
}

/// Hybrid streams whose decode leaves a NaN in the middle of every page:
/// what a corrupt or buggy codec would serve.
class NanDecodingCodec final : public Compressor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "nan-decoding";
  }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kHybrid;
  }
  [[nodiscard]] bool lossy() const noexcept override { return true; }

 private:
  void do_compress(std::span<const float> input, const CompressParams& params,
                   std::vector<std::byte>& out,
                   CompressionWorkspace& ws) const override {
    get_compressor("hybrid").compress(input, params, out, ws);
  }
  void do_decompress(const StreamHeader& /*header*/,
                     std::span<const std::byte> payload, std::span<float> out,
                     CompressionWorkspace& ws) const override {
    // A hybrid payload is a selector byte, then a complete inner stream.
    const auto inner = payload.subspan(1);
    std::span<const std::byte> inner_payload;
    get_compressor(parse_header(inner, inner_payload).codec)
        .decompress(inner, out, ws);
    out[out.size() / 2] = std::nanf("");
  }
};

TEST(PagedRowStore, NaNDecodeCountsAsUnboundedError) {
  // std::max(err, NaN) keeps err, so a NaN-decoding codec would pass an
  // "error <= eb" check unless the store counts it as infinite error.
  Rng rng(8);
  Matrix rows(600, 16);
  for (auto& v : rows.flat()) v = static_cast<float>(rng.normal(0.0, 0.5));
  const NanDecodingCodec codec;
  PagedStoreConfig config;
  config.codec = &codec;
  config.params.error_bound = 0.01;
  config.params.eb_mode = EbMode::kAbsolute;
  config.rows_per_page = 128;
  const PagedRowStore store(rows, config);
  EXPECT_EQ(store.max_abs_error(), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(store.max_abs_error() <= 0.01);
}

// --------------------------------------------------- scatter/gather merge

/// Gathers a batch through a store with `num_shards` and returns the
/// merged matrix.
Matrix gather_through(const DatasetSpec& spec,
                      std::span<const EmbeddingTable> tables,
                      const ShardStoreConfig& config, std::size_t table,
                      std::span<const std::uint32_t> indices) {
  ShardedEmbeddingStore store(spec, tables, config);
  ShardRouter router(store);
  Matrix out(indices.size(), spec.embedding_dim);
  router.gather(table, indices, out);
  return out;
}

TEST(ShardRouter, RawShardedGatherBitwiseEqualsDirectLookup) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(4, 16);
  const std::vector<EmbeddingTable> tables = make_embedding_set(spec, 42);

  // Indices spanning several pages, with duplicates and page-crossing
  // strides.
  std::vector<std::uint32_t> indices;
  Rng rng(5);
  const std::size_t rows = tables[1].rows();
  for (std::size_t i = 0; i < 300; ++i) {
    indices.push_back(static_cast<std::uint32_t>(rng.next_below(rows)));
  }
  indices.push_back(indices.front());  // guaranteed duplicate

  ShardStoreConfig config;
  config.num_shards = 5;
  config.rows_per_page = 64;
  config.codec = "";  // raw cold tier: must be bitwise exact
  config.cache_budget_bytes = 64 << 10;

  const Matrix merged = gather_through(spec, tables, config, 1, indices);
  Matrix direct(indices.size(), spec.embedding_dim);
  tables[1].lookup(indices, direct);
  ASSERT_EQ(merged.size(), direct.size());
  EXPECT_EQ(std::memcmp(merged.data(), direct.data(),
                        direct.size() * sizeof(float)),
            0);
}

TEST(ShardRouter, ShardCountDoesNotChangeServedBits) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(3, 16);
  const std::vector<EmbeddingTable> tables = make_embedding_set(spec, 11);

  std::vector<std::uint32_t> indices;
  Rng rng(8);
  for (std::size_t i = 0; i < 400; ++i) {
    indices.push_back(
        static_cast<std::uint32_t>(rng.next_below(tables[0].rows())));
  }

  // Compressed cold tier: page streams depend only on (table, params,
  // page size), so 1 shard and 5 shards must serve identical bytes.
  ShardStoreConfig config;
  config.num_shards = 1;
  config.rows_per_page = 128;
  config.codec = "hybrid";
  config.error_bound = 0.01;
  config.cache_budget_bytes = 1 << 20;
  const Matrix one = gather_through(spec, tables, config, 0, indices);
  config.num_shards = 5;
  const Matrix five = gather_through(spec, tables, config, 0, indices);
  ASSERT_EQ(one.size(), five.size());
  EXPECT_EQ(
      std::memcmp(one.data(), five.data(), one.size() * sizeof(float)), 0);

  // And a zero-budget cache (every probe misses) still serves the same
  // bits — the hot tier is a latency tier, never a value tier.
  config.cache_budget_bytes = 0;
  const Matrix uncached = gather_through(spec, tables, config, 0, indices);
  EXPECT_EQ(std::memcmp(one.data(), uncached.data(),
                        one.size() * sizeof(float)),
            0);
}

TEST(ShardStore, DeterministicTraceCounters) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(2, 16);
  const std::vector<EmbeddingTable> tables = make_embedding_set(spec, 3);

  ShardStoreConfig config;
  config.num_shards = 2;
  config.rows_per_page = 32;
  config.codec = "";
  // Room for exactly 4 rows per shard.
  config.cache_budget_bytes = 2 * 4 * HotRowCache::slot_bytes(16);

  ShardedEmbeddingStore store(spec, tables, config);
  ShardRouter router(store);

  // Same gather twice: first pass all misses, second pass all hits (8
  // distinct rows, 4 per shard, exactly filling both caches).
  const std::vector<std::uint32_t> indices = {0,  1,  2,  3,
                                              32, 33, 34, 35};
  Matrix out(indices.size(), spec.embedding_dim);
  router.gather(0, indices, out);
  ShardStoreStats s = store.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 8u);
  EXPECT_EQ(s.pages_loaded, 2u);  // one page fault per shard
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.resident_rows, 8u);

  router.gather(0, indices, out);
  s = store.stats();
  EXPECT_EQ(s.hits, 8u);
  EXPECT_EQ(s.misses, 8u);
  EXPECT_EQ(s.pages_loaded, 2u);  // no new faults
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(router.gathers(), 2u);
  EXPECT_EQ(router.partials_issued(), 4u);  // 2 shards x 2 gathers
}

// -------------------------------------------------------------- admission

TEST(BatchScheduler, ShedsAtSaturationDeterministically) {
  BatchSchedulerConfig config;
  config.max_batch_samples = 64;
  config.max_delay_s = 0.001;
  config.slo_s = 0.010;
  config.est_batch_overhead_s = 0.002;
  config.est_service_per_sample_s = 0.001;
  config.modeled_servers = 1;
  const BatchScheduler scheduler(config);

  // 8-sample queries cost 2 + 8 = 10 ms each; one server. Query 0 admits
  // (done at t=10ms, latency 10ms == SLO). Query 1 arrives at 1ms, would
  // start at 10ms and finish at 20ms -> 19ms latency: shed. Query 2 at
  // 11ms starts at max(11,10)=11, done 21 -> 10ms: admitted.
  std::vector<Query> queries;
  for (std::size_t i = 0; i < 3; ++i) {
    Query q;
    q.id = i;
    q.arrival_s = i == 0 ? 0.0 : (i == 1 ? 0.001 : 0.011);
    q.num_samples = 8;
    queries.push_back(q);
  }
  const SchedulePlan plan = scheduler.plan(queries);
  ASSERT_EQ(plan.shed.size(), 1u);
  EXPECT_EQ(plan.shed[0].id, 1u);
  std::size_t admitted = 0;
  for (const auto& b : plan.batches) admitted += b.queries.size();
  EXPECT_EQ(admitted, 2u);

  // slo_s = 0 disables admission entirely: plan == schedule.
  config.slo_s = 0.0;
  const SchedulePlan open = BatchScheduler(config).plan(queries);
  EXPECT_TRUE(open.shed.empty());
  std::size_t all = 0;
  for (const auto& b : open.batches) all += b.queries.size();
  EXPECT_EQ(all, queries.size());
}

TEST(BatchScheduler, SaturatingStreamShedsMostQueries) {
  BatchSchedulerConfig config;
  config.slo_s = 0.005;
  config.est_batch_overhead_s = 0.001;
  config.est_service_per_sample_s = 0.0002;
  config.modeled_servers = 2;
  const BatchScheduler scheduler(config);

  // 1000 qps of 16-sample queries = 4.2 ms modeled work per query (under
  // the 5 ms SLO on an empty backlog) against 2 servers' ~476 qps of
  // modeled capacity: oversubscribed, so most of the stream sheds, but
  // whenever the backlog drains below the 0.8 ms slack a query readmits.
  std::vector<Query> queries;
  for (std::size_t i = 0; i < 200; ++i) {
    Query q;
    q.id = i;
    q.arrival_s = static_cast<double>(i) * 0.001;
    q.num_samples = 16;
    queries.push_back(q);
  }
  const SchedulePlan plan = scheduler.plan(queries);
  EXPECT_GT(plan.shed.size(), queries.size() / 2);
  EXPECT_LT(plan.shed.size(), queries.size());  // backlog drains, readmits
}

// ------------------------------------------------------------- end to end

TEST(InferenceEngine, StoreBackedScoresMatchTableBacked) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(4, 16);
  const SyntheticClickDataset data(spec, 31);
  const SampleBatch batch = data.make_batch(64, 0);

  EngineConfig engine_config;  // exact
  InferenceEngine table_backed(spec, DlrmConfig{}, engine_config, 7);
  const std::vector<float> expected = table_backed.run(batch);

  // Raw sharded store over the same weights: scores must be bitwise
  // identical (the raw cold tier is lossless and the MLPs are shared).
  InferenceEngine store_backed(spec, DlrmConfig{}, engine_config, 7);
  ShardStoreConfig store_config;
  store_config.num_shards = 3;
  store_config.codec = "";
  store_config.cache_budget_bytes = 1 << 20;
  ShardedEmbeddingStore store(spec, store_backed.model().tables(),
                              store_config);
  store_backed.use_store(&store);
  EXPECT_TRUE(store_backed.sharded());
  const std::vector<float> served = store_backed.run(batch);
  ASSERT_EQ(served.size(), expected.size());
  EXPECT_EQ(std::memcmp(served.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0);
  EXPECT_GT(store.stats().misses, 0u);

  // Training through a provider is rejected.
  EXPECT_THROW((void)store_backed.model().train_step(batch), Error);

  // Detaching restores table-local serving.
  store_backed.use_store(nullptr);
  EXPECT_FALSE(store_backed.sharded());
  const std::vector<float> detached = store_backed.run(batch);
  EXPECT_EQ(std::memcmp(detached.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0);
}

TEST(ServingSimulator, ShardedEndToEnd) {
  ServingConfig config;
  config.spec = DatasetSpec::small_training_proxy(6, 16);
  config.load.qps = 4000.0;
  config.load.num_queries = 200;
  config.load.mean_query_size = 8;
  config.load.max_query_size = 64;
  config.replicas = 3;
  config.seed = 9;
  config.store.num_shards = 3;
  config.store.rows_per_page = 64;
  config.store.codec = "hybrid";
  config.store.error_bound = 0.01;
  config.store.cache_budget_bytes = 256 << 10;
  config.scheduler.slo_s = 0.5;  // generous: nothing sheds at this scale

  const ServingReport report = ServingSimulator(config).run();
  EXPECT_EQ(report.queries, 200u);
  EXPECT_EQ(report.shed_queries, 0u);
  EXPECT_GT(report.store_stats.hits + report.store_stats.misses, 0u);
  EXPECT_GT(report.store_stats.hit_rate(), 0.0);
  EXPECT_GT(report.store_stats.ratio(), 1.0);
  EXPECT_LE(report.store_stats.max_abs_error, 0.01 + 1e-7);

  // The serving metrics the obs plane exports are present and coherent.
  const MetricsSnapshot& m = report.metrics;
  // The manifest's lookup error and ratio are the store's, and the only
  // serve/lookup_* key is the ratio: the input/compressed byte counters
  // of the removed per-lookup codec path are not written.
  EXPECT_EQ(m.value("serve/max_lookup_error"),
            report.store_stats.max_abs_error);
  EXPECT_EQ(m.value("serve/lookup_cr"), report.store_stats.ratio());
  for (const auto& [key, value] : m.values) {
    if (key.rfind("serve/lookup_", 0) == 0) EXPECT_EQ(key, "serve/lookup_cr");
  }
  EXPECT_EQ(m.value("serve/shards"), 3.0);
  EXPECT_GT(m.value("serve/cache_hit_rate"), 0.0);
  EXPECT_EQ(m.value("serve/cache_hits") + m.value("serve/cache_misses"),
            static_cast<double>(report.store_stats.hits +
                                report.store_stats.misses));
  EXPECT_GT(m.value("serve/pages_decompressed"), 0.0);
  EXPECT_GT(m.value("serve/store_cr"), 1.0);
  EXPECT_EQ(m.value("serve/shed_queries"), 0.0);
}

}  // namespace
}  // namespace dlcomp
