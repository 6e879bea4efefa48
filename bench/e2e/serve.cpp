// Serving workloads: InferenceEngine replicas over one shared
// ShardedEmbeddingStore (hybrid-compressed pages behind per-shard CLOCK
// caches) under an open-loop Poisson query stream. One dispatcher (this
// thread) releases each planned batch at its due time; three replica
// threads score them. Every latency counts from the query's due arrival.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "ledger.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "procs.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/inference_engine.hpp"
#include "serve/load_generator.hpp"
#include "serve/router.hpp"
#include "serve/shard_store.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace dlcomp;

/// Replica threads; with the dispatcher that is one thread per core of
/// the 4-core host the benchmark is sized for.
constexpr unsigned kReplicas = 3;
constexpr double kErrorBound = 0.01;
/// The model and the click teacher are part of the workload; the seed
/// picks the arrival process and the sampled candidates.
constexpr std::uint64_t kModelSeed = 2024;
constexpr std::uint64_t kDataSeed = 67;

struct ServeWorkload {
  const char* name;
  std::size_t cache_mib;  ///< hot-tier budget across the 4 shards
  double qps;             ///< open-loop Poisson arrival rate
  double slo_ms;          ///< latency limit behind slo_miss_frac
  bool prewarm;           ///< gather every row once before timing
};

constexpr ServeWorkload kWorkloads[] = {
    {"serve-cold", 1, 120.0, 100.0, false},
    {"serve-hot", 64, 3000.0, 25.0, true},
};

const ServeWorkload& find_workload(const std::string& name) {
  for (const ServeWorkload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw Error("unknown serving workload: " + name);
}

/// Engines, the shared store and its set-up cost. The store is declared
/// first so it outlives the engines' routers into it.
struct Fleet {
  std::unique_ptr<ShardedEmbeddingStore> store;
  std::vector<InferenceEngine> engines;
  double setup_s = 0.0;
  double store_build_s = 0.0;
};

Fleet build_fleet(const ServeWorkload& w, const DatasetSpec& spec) {
  const std::uint64_t t0 = now_ns();
  Fleet fleet;
  fleet.engines.reserve(kReplicas);
  for (unsigned r = 0; r < kReplicas; ++r) {
    fleet.engines.emplace_back(spec, DlrmConfig{}, EngineConfig{}, kModelSeed);
  }
  ShardStoreConfig config;
  config.num_shards = 4;
  config.rows_per_page = 256;
  config.cache_budget_bytes = w.cache_mib << 20;
  config.codec = "hybrid";
  config.error_bound = kErrorBound;
  {
    ThreadPool build_pool;
    const std::uint64_t s0 = now_ns();
    fleet.store = std::make_unique<ShardedEmbeddingStore>(
        spec, fleet.engines.front().model().tables(), config, &build_pool);
    fleet.store_build_s = (now_ns() - s0) * 1e-9;
  }
  for (InferenceEngine& engine : fleet.engines) engine.use_store(fleet.store.get());
  if (w.prewarm) {
    // One ascending pass over every row: each page decodes once, here,
    // instead of on the first query that touches it.
    ShardRouter router(*fleet.store);
    for (std::size_t t = 0; t < spec.num_tables(); ++t) {
      std::vector<std::uint32_t> rows(spec.tables[t].cardinality);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i] = static_cast<std::uint32_t>(i);
      }
      Matrix out(rows.size(), spec.embedding_dim);
      router.gather(t, rows, out);
    }
  }
  fleet.setup_s = (now_ns() - t0) * 1e-9;
  return fleet;
}

/// The pre-generated query stream, its batch plan and each batch's
/// samples (the engines only ever see these).
struct Inputs {
  std::vector<Query> queries;
  std::vector<InferenceBatch> batches;
  std::vector<SampleBatch> samples;
  double warmup_s = 0.0;
  std::vector<std::string> errors;
};

Inputs make_inputs(const ServeWorkload& w, const RunOptions& options,
                   const BatchSource& data) {
  Inputs in;
  in.warmup_s = std::min(3.0, 0.2 * options.seconds);
  LoadGenConfig load;
  load.pattern = ArrivalPattern::kPoisson;
  load.qps = w.qps;
  load.num_queries = static_cast<std::size_t>(
      std::ceil(w.qps * (in.warmup_s + options.seconds)));
  // Geometric sizes around 16 candidates, capped at 64: about 2% of
  // queries sit at the cap, so p99 latency measures that common shape
  // rather than the rarest draws of one seed.
  load.mean_query_size = 16;
  load.max_query_size = 64;
  load.seed = options.seed;
  in.queries = LoadGenerator(load).generate();

  BatchSchedulerConfig sched;
  sched.max_batch_samples = 256;
  sched.max_delay_s = 0.002;
  sched.slo_s = 0.0;  // admission off: every query is served
  SchedulePlan plan = BatchScheduler(sched).plan(in.queries);
  in.batches = std::move(plan.batches);

  // The plan must cover the stream exactly once.
  std::vector<unsigned> seen(in.queries.size(), 0);
  for (const InferenceBatch& b : in.batches) {
    for (const Query& q : b.queries) ++seen.at(q.id);
  }
  if (!plan.shed.empty() ||
      std::any_of(seen.begin(), seen.end(), [](unsigned n) { return n != 1; })) {
    in.errors.push_back("batch plan does not cover every query exactly once");
  }

  in.samples.resize(in.batches.size());
  ThreadPool pool;
  pool.parallel_for(0, in.batches.size(), 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      in.samples[b] = data.make_batch(in.batches[b].total_samples(),
                                      options.seed * kStreamStride + b);
    }
  });
  return in;
}

/// One open-loop pass: per-batch timestamps and scores.
struct Pass {
  std::uint64_t t0_ns = 0;  ///< stream time zero
  std::vector<std::uint64_t> push_ns, pop_ns, done_ns, late_ns;
  std::vector<std::uint64_t> lookup_ns;  ///< traced passes only
  std::vector<std::uint64_t> run_ns;
  std::vector<std::vector<float>> probs;
  std::vector<std::atomic<std::uint32_t>> runs;
  ShardStoreStats before, after;
  std::uint64_t trace_events = 0;

  explicit Pass(std::size_t n)
      : push_ns(n), pop_ns(n), done_ns(n), late_ns(n), lookup_ns(n),
        run_ns(n), probs(n), runs(n) {}
};

/// Multi-consumer FIFO of batch indices.
class BatchQueue {
 public:
  void push(std::size_t b) {
    {
      const std::lock_guard lock(mutex_);
      items_.push_back(b);
    }
    ready_.notify_one();
  }
  void close() {
    {
      const std::lock_guard lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }
  /// False once the queue is closed and drained.
  bool pop(std::size_t& b) {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    b = items_.front();
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mutex_;
  std::deque<std::size_t> items_;
  bool closed_ = false;
  std::condition_variable ready_;
};

/// With `traced`, every engine's lookups go through a benchmark-owned
/// ShardRouter inside a timed span, and the tracer records the pass.
std::unique_ptr<Pass> open_loop(Fleet& fleet, const Inputs& in, bool traced,
                                const std::string& trace_path) {
  const std::size_t n = in.batches.size();
  auto pass = std::make_unique<Pass>(n);
  Pass& p = *pass;

  // Lookup time of the batch each replica is running.
  std::vector<std::uint64_t> lookup_acc(kReplicas, 0);
  std::vector<std::unique_ptr<ShardRouter>> routers;
  if (traced) {
    for (unsigned r = 0; r < kReplicas; ++r) {
      routers.push_back(std::make_unique<ShardRouter>(*fleet.store));
      fleet.engines[r].model().set_lookup_provider(
          [&router = *routers[r], &acc = lookup_acc[r]](
              std::size_t table, std::span<const std::uint32_t> indices,
              Matrix& out) {
            DLCOMP_TRACE_SPAN("serve/lookup");
            const std::uint64_t t = now_ns();
            router.gather(table, indices, out);
            acc += now_ns() - t;
          });
    }
    Tracer::instance().enable();
  }

  p.before = fleet.store->stats();
  BatchQueue queue;
  std::vector<std::thread> replicas;
  for (unsigned r = 0; r < kReplicas; ++r) {
    replicas.emplace_back([&, r] {
      std::size_t b = 0;
      while (queue.pop(b)) {
        DLCOMP_TRACE_SPAN("bench/serve_batch");
        p.pop_ns[b] = now_ns();
        const std::uint64_t lookup0 = lookup_acc[r];
        std::vector<float> probs = fleet.engines[r].run(in.samples[b]);
        const std::uint64_t ran = now_ns();
        p.run_ns[b] = ran - p.pop_ns[b];
        p.lookup_ns[b] = lookup_acc[r] - lookup0;
        p.probs[b] = std::move(probs);
        p.runs[b].fetch_add(1, std::memory_order_relaxed);
        p.done_ns[b] = now_ns();
      }
    });
  }

  p.t0_ns = now_ns() + 5'000'000;
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint64_t due =
        p.t0_ns + static_cast<std::uint64_t>(in.batches[b].dispatch_s * 1e9);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    p.push_ns[b] = now_ns();
    p.late_ns[b] = p.push_ns[b] > due ? p.push_ns[b] - due : 0;
    queue.push(b);
  }
  queue.close();
  for (std::thread& t : replicas) t.join();
  p.after = fleet.store->stats();

  if (traced) {
    Tracer::instance().disable();
    for (const Tracer::ThreadTrace& t : Tracer::instance().collect()) {
      p.trace_events += t.events.size() + t.dropped;
    }
    Tracer::instance().export_chrome_trace(trace_path);
    for (InferenceEngine& engine : fleet.engines) engine.use_store(fleet.store.get());
  }
  return pass;
}

/// Closed-loop replay of the plan with every replica always busy:
/// queries scored per second of wall time.
double capacity_qps(Fleet& fleet, const Inputs& in, double seconds) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::uint64_t> finished(kReplicas, 0);
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> replicas;
  for (unsigned r = 0; r < kReplicas; ++r) {
    replicas.emplace_back([&, r] {
      while (now_ns() < end) {
        const std::size_t b = next.fetch_add(1) % in.batches.size();
        (void)fleet.engines[r].run(in.samples[b]);
        queries.fetch_add(in.batches[b].queries.size());
      }
      finished[r] = now_ns();
    });
  }
  for (std::thread& t : replicas) t.join();
  const std::uint64_t last = *std::max_element(finished.begin(), finished.end());
  return static_cast<double>(queries.load()) / ((last - start) * 1e-9);
}

/// Always-on output checks of a pass: every batch (so every query) was
/// scored exactly once, with one finite probability in [0, 1] per
/// sample. Returns the number of queries that failed them.
std::uint64_t failed_queries(const Pass& p, const Inputs& in) {
  std::uint64_t failed = 0;
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    bool ok = p.runs[b].load() == 1 &&
              p.probs[b].size() == in.batches[b].total_samples();
    for (const float v : p.probs[b]) ok = ok && std::isfinite(v) && v >= 0.0f && v <= 1.0f;
    if (!ok) failed += in.batches[b].queries.size();
  }
  return failed;
}

/// Mean BCE of held-out batches scored through the serving path (store
/// and engine). The batches are the same for every seed, so the number
/// shows what the compressed store does to predictions and nothing else;
/// over the seed's own queries it moved by a third of its bound from seed
/// to seed.
double served_logloss(InferenceEngine& engine, const BatchSource& data) {
  constexpr std::size_t kEvalBatches = 8;
  constexpr std::size_t kEvalBatchSize = 512;
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t b = 0; b < kEvalBatches; ++b) {
    const SampleBatch batch = data.make_eval_batch(kEvalBatchSize, b);
    const std::vector<float> probs = engine.run(batch);
    if (probs.size() != batch.labels.size()) return std::nan("");
    for (std::size_t i = 0; i < probs.size(); ++i) {
      const double q = std::clamp<double>(probs[i], 1e-7, 1.0 - 1e-7);
      sum -= batch.labels[i] > 0.5f ? std::log(q) : std::log1p(-q);
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

/// Window statistics of a pass (batches dispatched and queries arriving
/// after the warm-up).
struct Window {
  std::vector<double> latency_s;      ///< per query, from due arrival
  std::vector<double> batch_wait_s;   ///< per query, arrival -> dispatch
  std::vector<double> queue_s, service_s, late_s, lookup_s, run_s;  ///< per batch
  double samples = 0.0;
  double wall_s = 0.0;
  std::size_t queries = 0;
};

Window window_of(const Pass& p, const Inputs& in) {
  Window w;
  std::uint64_t last_done = p.t0_ns;
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    const InferenceBatch& batch = in.batches[b];
    for (const Query& q : batch.queries) {
      if (q.arrival_s < in.warmup_s) continue;
      const double due = static_cast<double>(p.t0_ns) + q.arrival_s * 1e9;
      w.latency_s.push_back((static_cast<double>(p.done_ns[b]) - due) * 1e-9);
      w.batch_wait_s.push_back(batch.dispatch_s - q.arrival_s);
    }
    if (batch.dispatch_s < in.warmup_s) continue;
    w.queue_s.push_back((p.pop_ns[b] - p.push_ns[b]) * 1e-9);
    w.service_s.push_back((p.done_ns[b] - p.pop_ns[b]) * 1e-9);
    w.run_s.push_back(p.run_ns[b] * 1e-9);
    w.lookup_s.push_back(p.lookup_ns[b] * 1e-9);
    w.late_s.push_back(p.late_ns[b] * 1e-9);
    w.samples += static_cast<double>(batch.total_samples());
    last_done = std::max(last_done, p.done_ns[b]);
  }
  w.queries = w.latency_s.size();
  w.wall_s = (static_cast<double>(last_done) - static_cast<double>(p.t0_ns)) * 1e-9 -
             in.warmup_s;
  return w;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

void check_pass(const Pass& p, const Inputs& in, const Fleet& fleet,
                RunOutput& out) {
  out.attempted += in.queries.size();
  const std::uint64_t failed = failed_queries(p, in);
  out.failed += failed;
  if (failed > 0) {
    out.errors.push_back(std::to_string(failed) +
                         " queries not scored exactly once with valid probabilities");
  }
  const ShardStoreStats stats = fleet.store->stats();
  if (!(stats.max_abs_error <= kErrorBound)) {
    out.errors.push_back("store reconstruction error exceeds the error bound");
  }
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const ServeWorkload& w) { return name == w.name; });
}

RunOutput run_serve_workload(const RunOptions& options) {
  const ServeWorkload& w = find_workload(options.workload);
  const DatasetSpec spec = DatasetSpec::criteo_kaggle_like(20000);
  const SyntheticClickDataset data(spec, kDataSeed);
  RunOutput out;
  const Inputs in = make_inputs(w, options, data);
  out.errors = in.errors;

  std::vector<double> setups;
  std::vector<double> store_builds;
  Fleet fleet;
  for (std::size_t i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    fleet = Fleet{};  // release the previous fleet before building anew
    fleet = build_fleet(w, spec);
    setups.push_back(fleet.setup_s);
    store_builds.push_back(fleet.store_build_s);
  }

  const std::unique_ptr<Pass> a = open_loop(fleet, in, false, "");
  check_pass(*a, in, fleet, out);

  auto& m = out.metrics;
  if (!options.trace) {
    const double logloss = served_logloss(fleet.engines.front(), data);
    if (!std::isfinite(logloss)) out.errors.push_back("served logloss is not finite");
    m["setup_s"] = percentile(setups, 50.0);
    m["payload_MB"] = static_cast<double>(fleet.store->stats().stored_bytes) / 1e6;
    m["logloss"] = logloss;
    return out;
  }

  const Window wa = window_of(*a, in);
  m["p50_ms"] = percentile(wa.latency_s, 50.0) * 1e3;
  m["tail_ms"] = percentile(wa.latency_s, tail_percentile(wa.latency_s.size())) * 1e3;
  m["throughput"] = capacity_qps(fleet, in, std::min(5.0, options.seconds / 3.0));
  const ShardStoreStats& s = a->after;
  const double lookups = static_cast<double>((s.hits - a->before.hits) +
                                             (s.misses - a->before.misses));
  m["serve.gen_late_ms_p99"] = percentile(wa.late_s, 99.0) * 1e3;
  m["serve.batch_wait_ms_p50"] = percentile(wa.batch_wait_s, 50.0) * 1e3;
  m["serve.queue_wait_ms_p50"] = percentile(wa.queue_s, 50.0) * 1e3;
  m["serve.queue_wait_ms_p99"] = percentile(wa.queue_s, 99.0) * 1e3;
  m["serve.service_ms_p50"] = percentile(wa.service_s, 50.0) * 1e3;
  m["serve.service_ms_p99"] = percentile(wa.service_s, 99.0) * 1e3;
  m["serve.replica_util"] = sum(wa.service_s) / (kReplicas * wa.wall_s);
  m["serve.batch_samples_mean"] = wa.samples / static_cast<double>(wa.service_s.size());
  m["serve.cache_hit_rate"] =
      lookups > 0.0 ? static_cast<double>(s.hits - a->before.hits) / lookups : 0.0;
  m["serve.pages_per_query"] =
      static_cast<double>(s.pages_loaded - a->before.pages_loaded) /
      static_cast<double>(in.queries.size());
  m["serve.store_build_s"] = percentile(store_builds, 50.0);
  m["serve.store_ratio"] = s.ratio();
  m["serve.store_max_err"] = s.max_abs_error;
  m["serve.slo_miss_frac"] =
      static_cast<double>(std::count_if(
          wa.latency_s.begin(), wa.latency_s.end(),
          [&](double v) { return v * 1e3 > w.slo_ms; })) /
      static_cast<double>(wa.queries);

  // Traced pass: the same stream again, from a freshly built fleet so
  // both passes start from the same cache state.
  fleet = Fleet{};
  fleet = build_fleet(w, spec);
  const std::string trace_dir = kTraceDir;
  std::filesystem::create_directories(trace_dir);
  const std::unique_ptr<Pass> b =
      open_loop(fleet, in, true, trace_dir + "/" + w.name + ".json");
  check_pass(*b, in, fleet, out);
  const Window wb = window_of(*b, in);
  const double service = sum(wb.service_s);
  const double batches = static_cast<double>(wb.service_s.size());
  m["serve.lookup_ms_per_batch"] = sum(wb.lookup_s) / batches * 1e3;
  m["serve.forward_ms_per_batch"] = (sum(wb.run_s) - sum(wb.lookup_s)) / batches * 1e3;
  const double traced_p50 = percentile(wb.service_s, 50.0);
  const double e2e_p50 = percentile(wa.service_s, 50.0);
  m["harness.iter_ms_p50"] = traced_p50 * 1e3;
  m["harness.unattributed_pct"] = 100.0 * (service - sum(wb.run_s)) / service;
  m["harness.vs_e2e_pct"] = 100.0 * (traced_p50 - e2e_p50) / e2e_p50;
  bool matches = true;
  for (std::size_t i = 0; i < in.batches.size(); ++i) {
    matches = matches && a->probs[i].size() == b->probs[i].size() &&
              std::memcmp(a->probs[i].data(), b->probs[i].data(),
                          a->probs[i].size() * sizeof(float)) == 0;
  }
  m["harness.matches_e2e"] = matches ? 1.0 : 0.0;
  m["obs.trace_events_per_op"] =
      static_cast<double>(b->trace_events) / static_cast<double>(in.batches.size());
  return out;
}

}  // namespace e2e
