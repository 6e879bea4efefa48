// Walkthrough of the online serving subsystem, piece by piece: generate
// a query stream, batch it under a latency budget, score it on a DLRM
// engine fleet, and compare exact serving against serving from a sharded
// store of compressed embedding pages.
//
// Build and run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/example_serving

#include <cstdio>

#include "serve/simulator.hpp"

using namespace dlcomp;

int main() {
  // 1. A load generator shapes the traffic. Poisson is steady traffic;
  //    try kBursty or kDiurnal for flash crowds / time-of-day swings.
  LoadGenConfig load;
  load.pattern = ArrivalPattern::kPoisson;
  load.qps = 1500.0;           // mean offered load
  load.num_queries = 1000;
  load.mean_query_size = 16;   // candidate items scored per query
  load.seed = 42;

  const LoadGenerator generator(load);
  const auto queries = generator.generate();
  std::printf("generated %zu queries spanning %.2f s of simulated traffic\n",
              queries.size(), queries.back().arrival_s);

  // 2. The batch scheduler trades latency for throughput: it coalesces
  //    queries until the batch is full or the oldest query's delay
  //    budget (here 2 ms) would be blown.
  BatchSchedulerConfig sched;
  sched.max_batch_samples = 256;
  sched.max_delay_s = 0.002;
  const auto batches = BatchScheduler(sched).plan(queries).batches;
  std::size_t total_samples = 0;
  for (const auto& batch : batches) total_samples += batch.total_samples();
  std::printf("coalesced into %zu batches (%.1f samples/batch mean)\n",
              batches.size(),
              batches.empty() ? 0.0
                              : static_cast<double>(total_samples) /
                                    static_cast<double>(batches.size()));

  // 3. The serving simulator runs the whole pipeline on an engine fleet.
  //    First exact (uncompressed embeddings)...
  ServingConfig config;
  config.load = load;
  config.scheduler = sched;
  config.spec = DatasetSpec::small_training_proxy(8, 16);
  config.replicas = 2;
  config.seed = 42;
  const ServingReport exact = ServingSimulator(config).run();

  // 4. ...then from a sharded store: every table is kept in pages
  //    compressed with the paper's hybrid error-bounded codec, spread
  //    over 4 shards, with hot rows cached uncompressed. Reconstruction
  //    error per element stays under eb while the tables shrink at rest.
  config.store.num_shards = 4;
  config.store.codec = "hybrid";
  config.store.error_bound = 0.01;
  const ServingReport sharded = ServingSimulator(config).run();
  const ShardStoreStats& store = sharded.store_stats;

  std::printf("\nexact:   %s\n", format_latency(exact.latency).c_str());
  std::printf("sharded: %s\n\n", format_latency(sharded.latency).c_str());
  const std::pair<std::string, const ServingReport*> rows[] = {
      {"exact", &exact}, {"sharded", &sharded}};
  std::printf("%s\n", format_serving_table(rows).c_str());
  std::printf(
      "the store holds the tables in %.2fx fewer bytes; max element "
      "error %.4g (bound %.4g); cache hit rate %.3f, %llu pages decoded\n",
      store.ratio(), store.max_abs_error, config.store.error_bound,
      store.hit_rate(), static_cast<unsigned long long>(store.pages_loaded));
  return 0;
}
