// Perf trajectory reporter. Runs the codec, all-to-all, overlap,
// transport, parallel-codec, serving, dataset and tracer microbenches and
// records every number as one flat "block/key" metric of a RunManifest
// (mode "bench"), the record `dlcomp obs diff` reads. BENCH_codec.json is
// that manifest; BENCH_history.jsonl holds one compact copy per recorded
// run, so `dlcomp obs diff` compares any two of them key by key.
//
// Usage: bench_report [--out FILE] [--reps N] [--label NAME] [--smoke]
//                     [--history FILE]
//   --smoke     1 rep per measurement (CI wiring check, numbers noisy)
//   --label     free-form tag stored in the manifest ("prN", ...)
//   --history   also append the manifest to FILE as one JSONL line

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/arg_parser.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/net.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "comm/calibration.hpp"
#include "comm/communicator.hpp"
#include "comm/tcp_runtime.hpp"
#include "compress/chunked.hpp"
#include "compress/kernels.hpp"
#include "compress/registry.hpp"
#include "compress/simd.hpp"
#include "compress/workspace.hpp"
#include "core/compressed_alltoall.hpp"
#include "data/shard_converter.hpp"
#include "data/shard_reader.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/simulator.hpp"

namespace {

using namespace dlcomp;

/// Codec of every block except the per-codec sweep.
constexpr const char* kCodec = "hybrid";

CompressParams bench_params() {
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;
  return params;
}

/// Embedding-batch-shaped payload of `n` floats, identical to
/// bench_codec_throughput's: 32-wide vectors repeated from a pool that is
/// redrawn at random row boundaries. Shorter payloads are prefixes of
/// longer ones.
std::vector<float> payload(std::size_t n) {
  Rng rng(17);
  std::vector<float> out;
  out.reserve(n);
  std::vector<float> pool_vec(32);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 32 == 0 && rng.bernoulli(0.4)) {
      for (auto& v : pool_vec) v = static_cast<float>(rng.normal(0.0, 0.2));
    }
    out.push_back(pool_vec[i % 32]);
  }
  return out;
}

/// Gradient-shaped payload for the overlap measurement: plain Gaussian
/// values compress ~3x instead of the ~9x of the embedding-shaped
/// payload, which is the wire-dominated regime the paper's pipeline (and
/// DLRM's backward direction) lives in — with a 9x ratio the exchange is
/// codec-bound and extra pipeline stages only add launch overhead.
std::vector<float> overlap_payload() {
  Rng rng(23);
  std::vector<float> out(1 << 18);
  for (auto& v : out) v = static_cast<float>(rng.normal(0.0, 0.2));
  return out;
}

double mbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e6 : 0.0;
}

/// Fastest wall time of `reps` runs of `body`; `before` runs untimed
/// ahead of each one.
template <typename Body, typename Before>
double best_of(std::size_t reps, const Body& body, const Before& before) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    before();
    WallTimer timer;
    body();
    best = std::min(best, timer.seconds());
  }
  return best;
}

template <typename Body>
double best_of(std::size_t reps, const Body& body) {
  return best_of(reps, body, [] {});
}

/// One rank's all-to-all buffers: `input` cut into world x
/// chunks_per_dest equal chunks, destination d sending chunks
/// [d*chunks_per_dest, (d+1)*chunks_per_dest), plus matching receive
/// buffers per source. `recv` views `storage`: moving keeps the views
/// valid, copying does not.
struct ExchangeBuffers {
  std::vector<std::vector<A2AChunkSpec>> send;
  std::vector<std::vector<float>> storage;
  std::vector<std::vector<std::span<float>>> recv;
};

ExchangeBuffers split_exchange(std::span<const float> input, int world,
                               std::size_t chunks_per_dest) {
  const auto peers = static_cast<std::size_t>(world);
  const std::size_t chunk_elems = input.size() / (peers * chunks_per_dest);
  ExchangeBuffers x;
  x.send.resize(peers);
  x.recv.resize(peers);
  x.storage.assign(peers * chunks_per_dest, std::vector<float>(chunk_elems));
  for (std::size_t p = 0; p < peers; ++p) {
    for (std::size_t c = 0; c < chunks_per_dest; ++c) {
      const std::size_t i = p * chunks_per_dest + c;
      x.send[p].push_back(
          {input.subspan(i * chunk_elems, chunk_elems), bench_params()});
      x.recv[p].push_back(x.storage[i]);
    }
  }
  return x;
}

void measure_codec(const std::string& name, std::span<const float> input,
                   std::size_t reps, MetricsSnapshot& m) {
  const Compressor& codec = get_compressor(name);
  const CompressParams params = bench_params();
  CompressionWorkspace ws;
  std::vector<std::byte> stream;
  std::vector<float> out(input.size());
  const auto compress = [&] {
    stream.clear();
    codec.compress(input, params, stream, ws);
  };
  const auto decompress = [&] { codec.decompress(stream, out, ws); };

  const std::string key = "codecs/" + name + "/";
  compress();  // warm-up + reference stream
  m.set(key + "stream_crc32", crc32(stream));
  m.set(key + "ratio", static_cast<double>(input.size_bytes()) /
                           static_cast<double>(stream.size()));
  const double best_compress = best_of(reps, compress);
  decompress();  // warm-up
  const double best_decompress = best_of(reps, decompress);

  // Steady-state allocation check: after the loops above every scratch
  // buffer has hit its high-water mark, so one more round-trip must not
  // grow anything.
  const std::uint64_t before = ws.grow_events();
  compress();
  decompress();
  m.set(key + "steady_grow_events",
        static_cast<double>(ws.grow_events() - before));

  m.set(key + "compress_MBps", mbps(input.size_bytes(), best_compress));
  m.set(key + "decompress_MBps", mbps(input.size_bytes(), best_decompress));
  m.set(key + "roundtrip_MBps",
        mbps(input.size_bytes(), best_compress + best_decompress));
}

void measure_alltoall(std::span<const float> input, std::size_t reps,
                      MetricsSnapshot& m) {
  constexpr int kWorld = 4;
  ThreadPool pool(4);
  Cluster cluster(kWorld);
  std::vector<double> rank_seconds(kWorld, 0.0);
  std::vector<double> rank_ratio(kWorld, 0.0);
  std::vector<double> rank_grow(kWorld, 0.0);

  cluster.run([&](Communicator& comm) {
    CompressedAllToAllConfig config;
    config.codec = &get_compressor(kCodec);
    config.pool = &pool;
    config.charge_modeled_time = false;
    const CompressedAllToAll a2a(config);
    ExchangeBuffers x = split_exchange(input, kWorld, 2);
    const auto exchange = [&] {
      return a2a.exchange(comm, x.send, x.recv, "bench");
    };

    A2AStats stats = exchange();  // warm-up
    const double best = best_of(reps, [&] { stats = exchange(); });
    const std::uint64_t grow_before = a2a.workspace_grow_events();
    exchange();
    const auto r = static_cast<std::size_t>(comm.rank());
    rank_grow[r] =
        static_cast<double>(a2a.workspace_grow_events() - grow_before);
    rank_seconds[r] = best;
    rank_ratio[r] = stats.compression_ratio();
  });

  m.set("alltoall_hybrid/exchange_MBps",
        mbps(input.size_bytes(), std::ranges::max(rank_seconds)));
  m.set("alltoall_hybrid/ratio", rank_ratio[0]);
  m.set("alltoall_hybrid/steady_grow_events", std::ranges::max(rank_grow));
}

/// Simulated (deterministic) exposed-vs-hidden communication for the
/// pipelined exchange against the monolithic path: world 8, hybrid codec,
/// modelled codec + wire charging. These numbers come from the SimClock,
/// not wall time, so they are reproducible across machines.
void measure_overlap(std::span<const float> input, MetricsSnapshot& m) {
  constexpr int kWorld = 8;
  ThreadPool pool(4);

  struct Run {
    double makespan_s = 0.0;
    double exposed_us = 0.0;  ///< slowest rank
    double hidden_us = 0.0;   ///< slowest rank
  };
  const auto run_mode = [&](std::size_t stages) {
    Cluster cluster(kWorld);
    std::vector<double> rank_exposed(kWorld, 0.0);
    std::vector<double> rank_hidden(kWorld, 0.0);
    cluster.run([&](Communicator& comm) {
      CompressedAllToAllConfig config;
      config.codec = &get_compressor(kCodec);
      config.pool = &pool;
      config.pipeline_stages = stages;
      const CompressedAllToAll a2a(config);
      ExchangeBuffers x = split_exchange(input, kWorld, 4);
      const A2AStats stats = a2a.exchange(comm, x.send, x.recv, "bench");
      const auto r = static_cast<std::size_t>(comm.rank());
      rank_exposed[r] = stats.exposed_comm_seconds;
      rank_hidden[r] = stats.hidden_comm_seconds;
    });
    return Run{cluster.makespan_seconds(),
               std::ranges::max(rank_exposed) * 1e6,
               std::ranges::max(rank_hidden) * 1e6};
  };

  const Run serial = run_mode(1);
  const Run pipelined = run_mode(4);
  m.set("overlap_alltoall/world", kWorld);
  m.set("overlap_alltoall/serial_exposed_us", serial.exposed_us);
  m.set("overlap_alltoall/pipelined_exposed_us", pipelined.exposed_us);
  m.set("overlap_alltoall/pipelined_hidden_us", pipelined.hidden_us);
  m.set("overlap_alltoall/exposed_reduction_pct",
        serial.exposed_us > 0.0
            ? 100.0 * (1.0 - pipelined.exposed_us / serial.exposed_us)
            : 0.0);
  m.set("overlap_alltoall/sim_exchange_speedup",
        pipelined.makespan_s > 0.0 ? serial.makespan_s / pipelined.makespan_s
                                   : 0.0);
}

/// Runs `body(rank, runtime)` on `world` threads, each owning one
/// TcpTransport endpoint of a real localhost mesh. The listener is bound
/// here on an ephemeral port and inherited by rank 0's transport, the
/// same race-free handoff the multi-process launcher uses.
void run_tcp_world(int world, const NetworkModel& model,
                   const std::function<void(int, TcpRuntime&)>& body) {
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, world);
  const std::uint16_t port = net::bound_port(listen_fd);
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        TcpTransportConfig config;
        config.world = world;
        config.rank = r;
        config.address = "127.0.0.1";
        config.port = port;
        config.inherited_listen_fd = r == 0 ? listen_fd : -1;
        TcpRuntime runtime(config, model);
        body(r, runtime);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Real-socket transport calibration: raw (clock-free) all-to-all
/// exchanges through a world-4 TCP mesh at several payload sizes, OLS
/// fit of seconds on wire bytes recovering the machine's (latency,
/// bandwidth), validation of the fit on a held-out size, then one
/// pipelined compressed exchange under the fitted NetworkModel so the
/// report records how far the simulator's exposed-comm prediction sits
/// from the measured TCP wall on this machine.
void measure_transport(std::span<const float> input, std::size_t reps,
                       MetricsSnapshot& m) {
  constexpr int kWorld = 4;
  // Bytes per destination. The held-out size (last) is excluded from the
  // fit and used to score prediction error on unseen volume.
  constexpr std::array<std::size_t, 5> kSizes = {
      16u << 10, 64u << 10, 256u << 10, 1u << 20, 512u << 10};
  constexpr std::size_t kFitSizes = kSizes.size() - 1;
  const std::size_t timing_reps = std::max<std::size_t>(reps, 3);

  std::vector<std::array<double, kSizes.size()>> rank_best(kWorld);
  run_tcp_world(kWorld, NetworkModel{}, [&](int r, TcpRuntime& runtime) {
    Transport& transport = runtime.transport();
    std::vector<std::vector<std::byte>> bufs(kWorld);
    std::vector<std::span<const std::byte>> spans(kWorld);
    std::vector<std::vector<std::byte>> controls;
    std::vector<std::vector<std::byte>> recv;
    const auto exchange = [&] {
      transport.exchange({}, spans, controls, recv);
    };
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
      for (int d = 0; d < kWorld; ++d) {
        auto& buf = bufs[static_cast<std::size_t>(d)];
        buf.assign(kSizes[s], static_cast<std::byte>(r * kWorld + d));
        spans[static_cast<std::size_t>(d)] = buf;
      }
      exchange();  // warm-up
      rank_best[static_cast<std::size_t>(r)][s] =
          best_of(timing_reps, exchange, [&] { transport.barrier(); });
    }
  });

  // Collective completion = the slowest rank; wire volume per rank is
  // (world-1) destinations (the self chunk never crosses the wire) --
  // exactly what NetworkModel::alltoall_seconds charges.
  std::array<double, kSizes.size()> worst{};
  for (std::size_t s = 0; s < kSizes.size(); ++s) {
    for (const auto& best : rank_best) worst[s] = std::max(worst[s], best[s]);
  }
  std::vector<CalibrationSample> samples;
  for (std::size_t s = 0; s < kFitSizes; ++s) {
    samples.push_back({kSizes[s] * (kWorld - 1), worst[s]});
  }
  const LinkCalibration fit = fit_link_parameters(samples);
  m.set("transport/world", kWorld);
  m.set("transport/measured_alltoall_MBps",
        mbps(kSizes[kFitSizes - 1] * (kWorld - 1), worst[kFitSizes - 1]));
  m.set("transport/fitted_latency_us", fit.latency_seconds * 1e6);
  m.set("transport/fitted_bandwidth_MBps",
        fit.bandwidth_bytes_per_second / 1e6);
  m.set("transport/fit_max_rel_error_pct", fit.max_rel_error * 100.0);

  const std::size_t holdout_wire_bytes = kSizes[kFitSizes] * (kWorld - 1);
  const NetworkModel fitted = fit.apply(NetworkModel{});
  const double holdout_sim_us =
      fitted.alltoall_seconds(holdout_wire_bytes, kWorld) * 1e6;
  const double holdout_real_us = worst[kFitSizes] * 1e6;
  m.set("transport/holdout_wire_bytes", holdout_wire_bytes);
  m.set("transport/holdout_sim_exposed_us", holdout_sim_us);
  m.set("transport/holdout_real_exposed_us", holdout_real_us);
  m.set("transport/sim_vs_real_delta_pct",
        holdout_real_us > 0.0
            ? 100.0 * (holdout_sim_us - holdout_real_us) / holdout_real_us
            : 0.0);

  // Pipelined compressed exchange under the fitted model: the SimClock
  // now predicts *this* fabric, so its exposed-comm number lands next to
  // the measured wall of the identical exchange (wall additionally pays
  // real codec time where the sim charges modelled codec time).
  ThreadPool pool(4);
  std::vector<double> rank_exposed(kWorld, 0.0);
  std::vector<double> rank_wall(kWorld, 0.0);
  run_tcp_world(kWorld, fitted, [&](int r, TcpRuntime& runtime) {
    Communicator& comm = runtime.comm();
    CompressedAllToAllConfig config;
    config.codec = &get_compressor(kCodec);
    config.pool = &pool;
    config.pipeline_stages = 4;
    const CompressedAllToAll a2a(config);
    ExchangeBuffers x = split_exchange(input, kWorld, 4);
    A2AStats stats = a2a.exchange(comm, x.send, x.recv, "bench");  // warm-up
    const auto ri = static_cast<std::size_t>(r);
    rank_wall[ri] = best_of(
        timing_reps,
        [&] { stats = a2a.exchange(comm, x.send, x.recv, "bench"); },
        [&] { runtime.transport().barrier(); });
    rank_exposed[ri] = stats.exposed_comm_seconds;
    if (r == 0) {
      m.set("transport/rank0_wire_bytes",
            static_cast<double>(runtime.transport().stats().bytes_sent));
    }
  });
  m.set("transport/pipelined_sim_exposed_us",
        std::ranges::max(rank_exposed) * 1e6);
  m.set("transport/pipelined_wall_us", std::ranges::max(rank_wall) * 1e6);
}

/// Intra-message parallel throughput: one 8 MiB embedding-shaped tensor
/// through the BlockEngine at 1/2/4/8 pool threads. The assembled DLBK
/// container must hash identically at every width (framing is
/// deterministic by construction; this records the proof alongside the
/// numbers). Scaling beyond host_threads is an honest no-op — the rows
/// still show where the pool saturates the machine.
void measure_parallel_codec(std::size_t reps, MetricsSnapshot& m) {
  const Compressor& codec = get_compressor(kCodec);
  const CompressParams params = bench_params();
  // 2M floats = 8 blocks at the default 256 Ki block size: enough fan-out
  // for an 8-wide pool, same value distribution as the 1 MiB payload.
  const std::vector<float> input = payload(1u << 21);
  const std::size_t bytes = input.size() * sizeof(float);
  constexpr std::size_t kBlock = BlockEngine::kDefaultBlockElems;

  const std::string key = "parallel_codec/";
  m.set(key + "payload_bytes", bytes);
  m.set(key + "block_elems", kBlock);
  m.set(key + "blocks", (input.size() + kBlock - 1) / kBlock);
  m.set(key + "host_threads", std::thread::hardware_concurrency());
  m.set(key + "simd_isa_level", static_cast<int>(kernels::dispatched_isa()));

  std::uint32_t first_crc = 0;
  bool crc_identical = true;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    BlockEngine engine(&codec, &pool);
    std::vector<std::byte> stream;
    const auto compress_once = [&] {
      engine.compress_begin();
      const std::size_t slot = engine.add_tensor(input, params);
      engine.compress_run();
      stream.clear();
      engine.append_stream(slot, stream);
    };
    std::vector<float> out(input.size());
    const auto decompress_once = [&] {
      engine.decompress_begin();
      engine.add_stream(stream, out);
      engine.decompress_run();
    };

    compress_once();  // warm-up: lane workspaces + staging hit high water
    const std::uint32_t crc = crc32(stream);
    if (threads == 1) first_crc = crc;
    crc_identical = crc_identical && crc == first_crc;

    const double best_compress = best_of(reps, compress_once);
    decompress_once();  // warm-up
    const double best_decompress = best_of(reps, decompress_once);

    const std::uint64_t grow_before = engine.grow_events();
    compress_once();
    decompress_once();

    const std::string row = key + "t" + std::to_string(threads) + "_";
    m.set(row + "compress_MBps", mbps(bytes, best_compress));
    m.set(row + "decompress_MBps", mbps(bytes, best_decompress));
    m.set(row + "steady_grow_events",
          static_cast<double>(engine.grow_events() - grow_before));
  }
  m.set(key + "stream_crc32", first_crc);
  m.set(key + "crc_identical_across_threads", crc_identical ? 1.0 : 0.0);
  // Self-scaling (8 threads vs 1) so the speedup claim is explicit in
  // the report, not just derivable from the rows.
  const auto scaling = [&](const std::string& what) {
    const double t1 = m.value(key + "t1_" + what);
    return t1 > 0.0 ? m.value(key + "t8_" + what) / t1 : 0.0;
  };
  m.set(key + "compress_scaling_8v1", scaling("compress_MBps"));
  m.set(key + "decompress_scaling_8v1", scaling("decompress_MBps"));
}

/// Sharded serving tier: p99 latency against offered QPS at three hot-
/// cache budgets (the bench_serving_scale curve, sized for a report run).
/// Hit/miss/shed counts and the at-rest ratio are deterministic in the
/// query stream; the latency columns are wall time on this machine.
void measure_serving_scale(bool smoke, MetricsSnapshot& m) {
  ServingConfig base;
  base.load.num_queries = smoke ? 300 : 1500;
  base.load.mean_query_size = 16;
  base.load.max_query_size = 128;
  base.scheduler.max_batch_samples = 256;
  base.scheduler.max_delay_s = 0.002;
  base.scheduler.slo_s = 0.250;
  base.scheduler.modeled_servers = 4;
  base.replicas = 4;
  base.spec = DatasetSpec::small_training_proxy(26, 16);
  base.seed = 1234;
  base.store.num_shards = 4;
  base.store.rows_per_page = 256;
  base.store.codec = kCodec;
  base.store.error_bound = 0.01;

  const std::array<double, 2> qps_points = {2000.0, 8000.0};
  const std::array<std::size_t, 3> budgets_mib = {1, 4, 16};
  m.set("serving_scale/shards", base.store.num_shards);
  m.set("serving_scale/rows_per_page", base.store.rows_per_page);
  m.set("serving_scale/budgets", budgets_mib.size());
  double best_hit_rate = 0.0;
  for (const std::size_t budget : budgets_mib) {
    for (const double qps : qps_points) {
      ServingConfig config = base;
      config.load.qps = qps;
      config.store.cache_budget_bytes = budget << 20;
      const ServingReport r = ServingSimulator(config).run();
      const std::string cell = "serving_scale/b" + std::to_string(budget) +
                               "_q" + std::to_string(static_cast<int>(qps)) +
                               "_";
      m.set(cell + "p99_ms", r.latency.p99_s * 1e3);
      m.set(cell + "hit_rate", r.store_stats.hit_rate());
      m.set(cell + "pages", static_cast<double>(r.store_stats.pages_loaded));
      m.set(cell + "shed", static_cast<double>(r.shed_queries));
      m.set("serving_scale/store_ratio", r.store_stats.ratio());
      m.set("serving_scale/store_max_err", r.store_stats.max_abs_error);
      best_hit_rate = std::max(best_hit_rate, r.store_stats.hit_rate());
    }
  }
  m.set("serving_scale/cache_hit_rate", best_hit_rate);
}

/// Converter + reader throughput on a deterministic synthetic Criteo-
/// style TSV (fixed seed and line count, so the shard CRCs are identical
/// on every machine -- they regress like the codec stream CRCs).
void measure_dataset_pipeline(std::size_t reps, MetricsSnapshot& m) {
  namespace fs = std::filesystem;
  constexpr std::size_t kLines = 8192;
  constexpr std::size_t kSamplesPerShard = 2048;
  constexpr std::size_t kNumDense = 13;
  constexpr std::size_t kNumCat = 26;
  const fs::path root = fs::temp_directory_path() / "dlcomp_bench_dataset";
  fs::remove_all(root);
  fs::create_directories(root);
  const fs::path tsv = root / "input.tsv";
  const fs::path shards_dir = root / "shards";

  {
    Rng rng(31);
    std::ofstream os(tsv);
    char token[16];
    for (std::size_t i = 0; i < kLines; ++i) {
      os << (rng.bernoulli(0.23) ? '1' : '0');
      for (std::size_t d = 0; d < kNumDense; ++d) {
        os << '\t';
        if (!rng.bernoulli(0.1)) os << rng.next_below(4000);
      }
      for (std::size_t c = 0; c < kNumCat; ++c) {
        std::snprintf(token, sizeof(token), "%08llx",
                      static_cast<unsigned long long>(rng.next_u64() & 0xFFFFFFFFull));
        os << '\t' << (rng.bernoulli(0.05) ? "" : token);
      }
      os << '\n';
    }
  }

  ThreadPool pool;
  double best_convert = 1e300;
  ConvertOptions options;
  options.input_tsv = tsv.string();
  options.output_dir = shards_dir.string();
  options.samples_per_shard = kSamplesPerShard;
  options.pool = &pool;
  for (std::size_t r = 0; r < reps; ++r) {
    fs::remove_all(shards_dir);
    const ConvertReport converted = convert_criteo_tsv(options);
    m.set("dataset_pipeline/samples", converted.samples);
    m.set("dataset_pipeline/shards", converted.shards);
    best_convert = std::min(best_convert, converted.seconds);
  }
  m.set("dataset_pipeline/convert_MBps",
        mbps(static_cast<std::size_t>(fs::file_size(tsv)), best_convert));

  std::vector<std::uint32_t> shard_crcs;
  for (const auto& entry : fs::directory_iterator(shards_dir)) {
    std::ifstream is(entry.path(), std::ios::binary);
    std::vector<char> bytes{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
    shard_crcs.push_back(
        crc32({reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()}));
  }
  std::sort(shard_crcs.begin(), shard_crcs.end());
  for (std::size_t i = 0; i < shard_crcs.size(); ++i) {
    m.set("dataset_pipeline/shard_crc32/" + std::to_string(i), shard_crcs[i]);
  }

  // Read throughput through fill_batch (the path the trainer's make_batch
  // runs), batches of 512: epochs 0-1 are warm-up (the batch reaches its
  // shape, every shard is mapped and CRC-verified), later epochs must be
  // allocation-free.
  DatasetSpec spec = DatasetSpec::criteo_kaggle_like(100000);
  const ShardedDatasetReader reader(spec, shards_dir.string());
  SampleBatch batch;
  const std::size_t batches_per_epoch =
      static_cast<std::size_t>(reader.num_samples()) / 512;
  std::uint64_t next_batch = 0;
  for (; next_batch < 2 * batches_per_epoch; ++next_batch) {
    reader.fill_batch(512, next_batch, batch);
  }
  const std::uint64_t grow_before = reader.grow_events();
  const double best_read = best_of(reps, [&] {
    for (std::size_t b = 0; b < batches_per_epoch; ++b) {
      reader.fill_batch(512, next_batch++, batch);
    }
  });
  const double bytes_per_sample =
      static_cast<double>((kNumDense + 1) * sizeof(float) +
                          kNumCat * sizeof(std::uint32_t));
  const double epoch_bytes =
      static_cast<double>(batches_per_epoch * 512) * bytes_per_sample;
  m.set("dataset_pipeline/read_MBps",
        best_read > 0.0 ? epoch_bytes / best_read / 1e6 : 0.0);
  m.set("dataset_pipeline/steady_grow_events",
        static_cast<double>(reader.grow_events() - grow_before));

  fs::remove_all(root);
}

/// Tracer overhead on this machine: one thread recording begin/end span
/// pairs into its ring. The first span allocates the thread's ring; after
/// that warm-up, recording must not grow anything (the `steady_grow_events
/// == 0` line CI asserts on).
void measure_observability(std::size_t reps, MetricsSnapshot& m) {
  constexpr std::size_t kSpans = 200000;
  const std::size_t timing_reps = std::max<std::size_t>(reps, 3);
  const auto record_spans = [] {
    for (std::size_t i = 0; i < kSpans; ++i) {
      DLCOMP_TRACE_SPAN("bench/span");
    }
  };
  Tracer& tracer = Tracer::instance();

  const double best_disabled = best_of(timing_reps, record_spans);
  tracer.enable();
  { DLCOMP_TRACE_SPAN("bench/warmup"); }  // allocates this thread's ring
  const std::uint64_t grow_before = tracer.buffer_grow_events();
  const double best = best_of(timing_reps, record_spans);
  m.set("observability/steady_grow_events",
        static_cast<double>(tracer.buffer_grow_events() - grow_before));
  tracer.disable();

  m.set("observability/disabled_span_ns", best_disabled / kSpans * 1e9);
  m.set("observability/span_ns", best / kSpans * 1e9);
  m.set("observability/events_per_s",
        best > 0.0 ? 2.0 * static_cast<double>(kSpans) / best : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv, 1,
                         {"--out", "--reps", "--label", "--history"},
                         {"--smoke"});
    const bool smoke = args.has("--smoke");
    const std::size_t reps = smoke ? 1 : args.uint("--reps", 7);
    const std::string out_path = args.str("--out", "BENCH_codec.json");

    const std::vector<float> input = payload(1u << 18);
    MetricsSnapshot m;
    m.set("payload_bytes", input.size() * sizeof(float));
    m.set("reps", reps);
    for (const char* name : {"huffman", "cusz-like", "hybrid", "vector-lz",
                             "fz-gpu-like", "fp16"}) {
      measure_codec(name, input, reps, m);
    }
    measure_alltoall(input, reps, m);
    const std::vector<float> gradient_like = overlap_payload();
    measure_overlap(gradient_like, m);
    measure_transport(gradient_like, reps, m);
    measure_parallel_codec(reps, m);
    measure_serving_scale(smoke, m);
    measure_dataset_pipeline(reps, m);
    measure_observability(reps, m);
    std::cout << m.to_text();

    RunManifest manifest;
    manifest.label = args.str("--label", "current");
    manifest.mode = "bench";
    manifest.codec = kCodec;
    manifest.error_bound = bench_params().error_bound;
    manifest.created = utc_now_iso8601();
    manifest.config["transport_backend"] = "tcp";
    manifest.config["parallel_codec"] = kCodec;
    manifest.config["simd_isa"] =
        std::string(simd::isa_name(kernels::dispatched_isa()));
    manifest.metrics = std::move(m.values);
    manifest.save(out_path);
    std::cout << "wrote " << out_path << "\n";

    if (args.has("--history")) {
      const std::string history_path = args.str("--history");
      std::ofstream history(history_path, std::ios::app);
      history << manifest.to_json() << '\n';
      history.close();  // flush first: a full disk often shows only here
      if (!history) throw Error("cannot append to '" + history_path + "'");
      std::cout << "appended 1 line to " << history_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
