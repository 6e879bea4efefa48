// dlcomp command-line driver: compress/decompress float tensors on disk,
// run the offline analysis on a synthetic workload, inspect streams,
// simulate online inference serving, and manage model checkpoints.
//
// Usage:
//   dlcomp compress   <codec> <eb> <dim> <in.f32> <out.dlcp>
//   dlcomp decompress <in.dlcp> <out.f32>
//   dlcomp inspect    <in.dlcp>
//   dlcomp analyze    <kaggle|terabyte> <plan-out.txt> [sampling-eb]
//   dlcomp train      [--backend sim|tcp] [--world N] [--rank N] ...
//   dlcomp serve      [--pattern poisson|bursty|diurnal] [--qps N] ...
//   dlcomp trace      [--mode train|serve] [--out PREFIX] ...
//   dlcomp ckpt       save|inspect|verify|diff ...
//   dlcomp data       convert|inspect|stats ...
//   dlcomp obs        diff <reference> <candidate> ...
//   dlcomp codecs
//
// <in.f32> is a raw little-endian float32 file (e.g. from numpy's
// tofile()); <out.dlcp> is a self-describing dlcomp stream; <*.dlck> is
// a checkpoint container (see DESIGN.md "Checkpoint container").

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common/arg_parser.hpp"
#include "common/error.hpp"
#include "common/net.hpp"
#include "common/table_printer.hpp"
#include "common/timer.hpp"
#include "compress/format.hpp"
#include "compress/kernels.hpp"
#include "compress/registry.hpp"
#include "core/offline_analyzer.hpp"
#include "core/report_io.hpp"
#include "core/trainer.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_server.hpp"
#include "obs/trace.hpp"
#include "data/shard_converter.hpp"
#include "data/shard_format.hpp"
#include "data/shard_reader.hpp"
#include "serve/simulator.hpp"
#include "tensor/ops.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace dlcomp;

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw Error("cannot open: " + path);
  is.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(is.tellg());
  is.seekg(0);
  std::vector<std::byte> data(size);
  is.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  if (!is.good()) throw Error("read failed: " + path);
  return data;
}

void write_file(const std::string& path, std::span<const std::byte> data) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) throw Error("cannot open for writing: " + path);
  os.write(reinterpret_cast<const char*>(data.data()),
           static_cast<std::streamsize>(data.size()));
  if (!os.good()) throw Error("write failed: " + path);
}

DatasetSpec spec_by_name(const std::string& which) {
  if (which == "kaggle") return DatasetSpec::criteo_kaggle_like(20000);
  if (which == "terabyte") return DatasetSpec::criteo_terabyte_like(20000);
  if (which == "small") return DatasetSpec::small_training_proxy(26, 16);
  throw Error("unknown dataset: " + which + " (expected kaggle|terabyte|small)");
}

int cmd_compress(int argc, char** argv) {
  const ArgParser args(argc, argv, 2, {});
  if (args.positionals().size() != 5) {
    std::fprintf(stderr,
                 "usage: dlcomp compress <codec> <eb> <dim> <in.f32> "
                 "<out.dlcp>\n");
    return 2;
  }
  const Compressor& codec = get_compressor(args.positional(0));
  CompressParams params;
  params.error_bound = std::stod(args.positional(1));
  params.vector_dim = static_cast<std::size_t>(std::stoul(args.positional(2)));

  const auto raw = read_file(args.positional(3));
  if (raw.size() % sizeof(float) != 0) {
    throw Error("input size is not a multiple of 4 bytes");
  }
  std::vector<float> values(raw.size() / sizeof(float));
  std::memcpy(values.data(), raw.data(), raw.size());

  std::vector<std::byte> stream;
  const CompressionStats stats = codec.compress(values, params, stream);
  write_file(args.positional(4), stream);

  std::printf("%s: %zu -> %zu bytes (%.2fx) in %.1f ms\n",
              args.positional(0).c_str(), stats.input_bytes,
              stats.output_bytes, stats.ratio(), stats.seconds * 1e3);
  return 0;
}

int cmd_decompress(int argc, char** argv) {
  const ArgParser args(argc, argv, 2, {});
  if (args.positionals().size() != 2) {
    std::fprintf(stderr, "usage: dlcomp decompress <in.dlcp> <out.f32>\n");
    return 2;
  }
  const auto stream = read_file(args.positional(0));
  std::span<const std::byte> payload;
  const StreamHeader header = parse_header(stream, payload);

  // Route by the codec id baked into the stream.
  const Compressor* codec = nullptr;
  for (const auto name : all_compressor_names()) {
    const Compressor& candidate = get_compressor(name);
    std::vector<std::byte> probe;  // cheap: match on id via a tiny compress
    // Identify by id without a reverse map: compress one float and parse.
    std::vector<float> one{0.0f};
    candidate.compress(one, {}, probe);
    std::span<const std::byte> unused;
    if (parse_header(probe, unused).codec == header.codec) {
      codec = &candidate;
      break;
    }
  }
  if (codec == nullptr) throw Error("stream codec not registered");

  std::vector<float> values(header.element_count);
  codec->decompress(stream, values);

  write_file(args.positional(1),
             {reinterpret_cast<const std::byte*>(values.data()),
              values.size() * sizeof(float)});
  std::printf("decompressed %llu floats with %s (eb %.6g)\n",
              static_cast<unsigned long long>(header.element_count),
              std::string(codec->name()).c_str(),
              header.effective_error_bound);
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  const ArgParser args(argc, argv, 2, {});
  if (args.positionals().size() != 1) {
    std::fprintf(stderr, "usage: dlcomp inspect <in.dlcp>\n");
    return 2;
  }
  const auto stream = read_file(args.positional(0));
  std::span<const std::byte> payload;
  const StreamHeader header = parse_header(stream, payload);
  std::printf("codec id:      %d\n", static_cast<int>(header.codec));
  std::printf("flags:         0x%02x%s\n", header.flags,
              (header.flags & kFlagStoredRaw) ? " (stored raw)" : "");
  std::printf("vector dim:    %u\n", header.vector_dim);
  std::printf("elements:      %llu\n",
              static_cast<unsigned long long>(header.element_count));
  std::printf("error bound:   %.6g\n", header.effective_error_bound);
  std::printf("payload bytes: %llu\n",
              static_cast<unsigned long long>(header.payload_bytes));
  std::printf("ratio:         %.2fx\n",
              static_cast<double>(header.element_count * sizeof(float)) /
                  static_cast<double>(stream.size()));
  return 0;
}

int cmd_analyze(int argc, char** argv) {
  const ArgParser args(argc, argv, 2, {});
  if (args.positionals().size() != 2 && args.positionals().size() != 3) {
    std::fprintf(stderr,
                 "usage: dlcomp analyze <kaggle|terabyte> <plan-out.txt> "
                 "[sampling-eb]\n");
    return 2;
  }
  const std::string which = args.positional(0);
  if (which != "kaggle" && which != "terabyte") {
    throw Error("unknown dataset: " + which + " (expected kaggle|terabyte)");
  }
  const DatasetSpec spec = which == "kaggle"
                               ? DatasetSpec::criteo_kaggle_like(50000)
                               : DatasetSpec::criteo_terabyte_like(50000);
  const SyntheticClickDataset dataset(spec, 2024);
  const auto tables = make_embedding_set(spec, 2024);

  AnalyzerConfig config;
  config.sample_batches = 4;
  config.sampling_eb = args.positionals().size() == 3
                           ? std::stod(args.positional(2))
                           : (which == "kaggle" ? 0.01 : 0.005);
  const AnalysisReport report =
      OfflineAnalyzer(config).analyze(dataset, tables);
  const CompressionPlan plan = make_plan(report);
  save_plan(args.positional(1), plan);
  std::printf("analyzed %zu tables of %s; plan written to %s\n",
              plan.tables.size(), spec.name.c_str(),
              args.positional(1).c_str());
  return 0;
}

// ----------------------------------------------------------------- train

constexpr const char* kTrainUsage =
    "usage: dlcomp train [--backend sim|tcp] [--world N] [--iters N]\n"
    "    [--batch N] [--codec NAME|none] [--eb X] [--stages N]\n"
    "    [--no-overlap] [--dataset kaggle|terabyte|small] [--seed N]\n"
    "    [--record-every N] [--eval-every N] [--history-out FILE]\n"
    "    [--manifest-out FILE] [--label S]\n"
    "    [--rank N --port N [--address A] [--listen-fd FD]]\n"
    "--backend sim (default) runs every rank as a thread of this process;\n"
    "--backend tcp without --rank launches world ranks as forked child\n"
    "processes over localhost TCP (the parent binds the rendezvous\n"
    "listener first, so --port 0 picks an ephemeral port race-free) and\n"
    "exits nonzero if any rank fails; --backend tcp with --rank joins an\n"
    "existing group as that rank (rank 0 listens on --port or the\n"
    "inherited --listen-fd). Loss histories, wire CRCs and simulated\n"
    "clocks are byte-identical across backends at the same world size:\n"
    "--history-out files from a sim and a tcp run of the same config\n"
    "compare equal with cmp(1)\n";

/// Backend-independent run record: every double printed with %.17g, so
/// two runs produce byte-identical files iff their recorded trajectories
/// (and wire CRCs, and simulated makespans) are bitwise identical.
void write_history_json(const std::string& path, const TrainerConfig& config,
                        const TrainingResult& result) {
  std::ofstream os(path);
  if (!os.good()) throw Error("cannot open for writing: " + path);
  const auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  os << "{\n";
  os << "  \"world\": " << config.world << ",\n";
  os << "  \"iterations\": " << config.iterations << ",\n";
  os << "  \"start_iteration\": " << result.start_iteration << ",\n";
  os << "  \"wire_crc32\": " << result.wire_crc32 << ",\n";
  os << "  \"makespan_seconds\": " << num(result.makespan_seconds) << ",\n";
  os << "  \"final_eval_loss\": " << num(result.final_eval.loss) << ",\n";
  os << "  \"final_eval_accuracy\": " << num(result.final_eval.accuracy)
     << ",\n";
  os << "  \"history\": [\n";
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const IterationRecord& rec = result.history[i];
    os << "    {\"iter\": " << rec.iter
       << ", \"train_loss\": " << num(rec.train_loss)
       << ", \"train_accuracy\": " << num(rec.train_accuracy)
       << ", \"eval_accuracy\": " << num(rec.eval_accuracy)
       << ", \"forward_cr\": " << num(rec.forward_cr)
       << ", \"eb_scale\": " << num(rec.eb_scale) << "}"
       << (i + 1 < result.history.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  if (!os.good()) throw Error("write failed: " + path);
}

/// Runs one training process (the whole cluster under sim; one rank of
/// it under tcp). Only rank 0 prints and writes output files.
int run_train_rank(const ArgParser& args, const std::string& backend,
                   int rank, std::uint16_t port, int listen_fd) {
  TrainerConfig config;
  config.world = static_cast<int>(args.uint("--world", 4));
  config.iterations = args.uint("--iters", 24);
  config.global_batch = args.uint("--batch", 256);
  config.record_every = args.uint("--record-every", 4);
  config.eval_every = args.uint("--eval-every", 0);
  config.seed = args.u64("--seed", 42);
  std::string codec = args.str("--codec", "hybrid");
  if (codec == "none") codec.clear();
  if (!codec.empty()) (void)get_compressor(codec);  // fail before running
  config.compression.codec = codec;
  config.compression.global_eb = args.num("--eb", 0.01);
  config.overlap.forward = !args.has("--no-overlap");
  config.overlap.backward = config.overlap.forward;
  config.overlap.pipeline_stages = args.uint("--stages", 2);
  config.transport.backend = backend;
  config.transport.rank = rank;
  config.transport.address = args.str("--address", "127.0.0.1");
  config.transport.port = port;
  config.transport.inherited_listen_fd = listen_fd;

  const DatasetSpec spec = spec_by_name(args.str("--dataset", "small"));
  const SyntheticClickDataset dataset(spec, config.seed);

  const TrainingResult result = HybridParallelTrainer(config).train(dataset);
  if (backend == "tcp" && rank != 0) return 0;  // rank 0 owns the outputs

  std::printf(
      "trained %zu iterations at world=%d over the %s backend (%s): "
      "final loss %.6f, eval accuracy %.4f\n"
      "sim makespan %.3f ms (exposed comm %.3f ms, hidden %.3f ms); "
      "fwd CR %.2fx, bwd CR %.2fx; wire crc32 %08x; wall %.2f s\n",
      config.iterations - result.start_iteration, config.world,
      backend.c_str(), codec.empty() ? "uncompressed" : codec.c_str(),
      result.history.empty() ? 0.0 : result.history.back().train_loss,
      result.final_eval.accuracy, result.makespan_seconds * 1e3,
      result.exposed_comm_seconds() * 1e3, result.hidden_comm_seconds() * 1e3,
      result.forward_cr(), result.backward_cr(), result.wire_crc32,
      result.wall_seconds);

  // Live-registry face of the run's comm accounting (dlcomp_comm_*),
  // folded into the manifest metrics below alongside the codec counters.
  publish_comm_metrics(MetricsRegistry::global(), result.comm_stats,
                       result.wire_bytes_sent);

  if (args.has("--history-out")) {
    write_history_json(args.str("--history-out"), config, result);
  }
  if (args.has("--manifest-out")) {
    RunManifest manifest;
    manifest.label = args.str("--label", "train");
    manifest.mode = "train";
    manifest.codec = codec;
    manifest.error_bound = config.compression.global_eb;
    manifest.seed = config.seed;
    manifest.created = utc_now_iso8601();
    manifest.config["mode"] = "train";
    manifest.config["dataset"] = args.str("--dataset", "small");
    manifest.config["codec"] = codec.empty() ? "none" : codec;
    manifest.config["eb"] = std::to_string(config.compression.global_eb);
    manifest.config["seed"] = std::to_string(config.seed);
    manifest.config["world"] = std::to_string(config.world);
    manifest.config["iters"] = std::to_string(config.iterations);
    manifest.config["batch"] = std::to_string(config.global_batch);
    manifest.config["overlap"] = args.has("--no-overlap") ? "off" : "on";
    // Value-class keys like simd_isa: switching backend or ISA between
    // runs is a change `dlcomp obs diff` surfaces, not a regression.
    manifest.config["transport_backend"] = backend;
    manifest.config["simd_isa"] =
        std::string(simd::isa_name(kernels::dispatched_isa()));
    MetricsSnapshot metrics = result.metrics;
    for (const auto& [name, value] :
         MetricsRegistry::global().snapshot().values) {
      metrics.set(name, value);
    }
    manifest.metrics = metrics.values;
    manifest.save(args.str("--manifest-out"));
  }
  return 0;
}

int cmd_train(int argc, char** argv) {
  const ArgParser args(argc, argv, 2,
                       {"--backend", "--world", "--rank", "--address",
                        "--port", "--listen-fd", "--iters", "--batch",
                        "--codec", "--eb", "--dataset", "--seed", "--stages",
                        "--record-every", "--eval-every", "--history-out",
                        "--manifest-out", "--label"},
                       {"--no-overlap"});
  if (!args.positionals().empty()) throw Error("train takes no positionals");
  const std::string backend = args.str("--backend", "sim");
  if (backend == "sim") {
    return run_train_rank(args, backend, 0, 0, -1);
  }
  if (backend != "tcp") {
    throw Error("unknown --backend: " + backend + " (expected sim|tcp)");
  }
  if (args.has("--rank")) {
    // Join an externally launched group as one rank.
    const int listen_fd =
        args.has("--listen-fd") ? static_cast<int>(args.uint("--listen-fd", 0))
                                : -1;
    return run_train_rank(args, backend,
                          static_cast<int>(args.uint("--rank", 0)),
                          static_cast<std::uint16_t>(args.uint("--port", 0)),
                          listen_fd);
  }

  // ---- Launcher mode: bind the rendezvous listener *before* forking so
  // an ephemeral --port 0 is race-free (rank 0 inherits the bound fd,
  // the other ranks learn the resolved port), run every rank as a child
  // process, and fail if any rank does.
  const int world = static_cast<int>(args.uint("--world", 4));
  const std::string address = args.str("--address", "127.0.0.1");
  const int listen_fd = net::tcp_listen(
      address, static_cast<std::uint16_t>(args.uint("--port", 0)), world);
  const std::uint16_t port = net::bound_port(listen_fd);
  std::fflush(stdout);
  std::fflush(stderr);

  std::vector<pid_t> pids(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork failed for rank %d\n", r);
      return 1;
    }
    if (pid == 0) {
      int code = 1;
      try {
        if (r != 0) {
          int inherited = listen_fd;  // only rank 0 keeps the listener
          net::close_fd(inherited);
        }
        code = run_train_rank(args, backend, r, port, r == 0 ? listen_fd : -1);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d: error: %s\n", r, e.what());
        code = 1;
      }
      std::fflush(stdout);
      std::fflush(stderr);
      _exit(code);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }
  {
    int parent_fd = listen_fd;  // rank 0's child owns the inherited copy
    net::close_fd(parent_fd);
  }

  int failures = 0;
  for (int r = 0; r < world; ++r) {
    int status = 0;
    if (::waitpid(pids[static_cast<std::size_t>(r)], &status, 0) < 0) {
      ++failures;
      std::fprintf(stderr, "waitpid failed for rank %d\n", r);
      continue;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++failures;
      std::fprintf(stderr, "rank %d exited abnormally (status 0x%x)\n", r,
                   static_cast<unsigned>(status));
    }
  }
  std::printf("tcp launcher: %d ranks on %s:%u, %s\n", world, address.c_str(),
              static_cast<unsigned>(port),
              failures == 0 ? "all exited cleanly"
                            : "with failures (see above)");
  return failures == 0 ? 0 : 1;
}

constexpr const char* kServeUsage =
    "usage: dlcomp serve [--pattern poisson|bursty|diurnal] [--qps N]\n"
    "    [--queries N] [--query-size N] [--max-batch N]\n"
    "    [--max-delay-ms X] [--codec NAME] [--eb X]\n"
    "    [--dataset kaggle|terabyte|small] [--model dlrm|widedeep|ncf]\n"
    "    [--replicas N] [--seed N] [--checkpoint model.dlck]\n"
    "    [--shards N] [--rows-per-page N] [--cache-mb X] [--slo-ms X]\n"
    "    [--metrics-port N] [--linger-ms N]\n"
    "serves an exact baseline run, then a codec round-trip run -- or,\n"
    "with --shards N > 0, a sharded-store run: tables partitioned into\n"
    "compressed pages across N shard groups, a hot-row CLOCK cache of\n"
    "--cache-mb MiB total in front (decompress-on-miss), lookups\n"
    "scatter/gathered per query; --slo-ms sheds queries at admission\n"
    "when the modeled backlog would blow the latency objective.\n"
    "--model picks the interaction architecture (model zoo).\n"
    "--metrics-port starts the observability HTTP server on 127.0.0.1\n"
    "(0 = ephemeral; the bound port is printed) exposing /metrics\n"
    "(Prometheus), /healthz, /readyz and /status while the run serves;\n"
    "--linger-ms keeps it up that long after the run so scrapers can\n"
    "collect the final state\n";

int cmd_serve(int argc, char** argv) {
  const ArgParser args(argc, argv, 2,
                       {"--pattern", "--qps", "--queries", "--query-size",
                        "--max-batch", "--max-delay-ms", "--codec", "--eb",
                        "--dataset", "--model", "--replicas", "--seed",
                        "--checkpoint", "--shards", "--rows-per-page",
                        "--cache-mb", "--slo-ms", "--metrics-port",
                        "--linger-ms"});
  if (!args.positionals().empty()) throw Error("serve takes no positionals");

  ServingConfig config;
  config.spec = spec_by_name(args.str("--dataset", "small"));
  if (args.has("--pattern")) {
    config.load.pattern = parse_arrival_pattern(args.str("--pattern"));
  }
  config.load.qps = args.num("--qps", 1000.0);
  config.load.num_queries = args.uint("--queries", 2000);
  config.load.mean_query_size = args.uint("--query-size", 16);
  config.load.max_query_size =
      std::max<std::size_t>(128, 8 * config.load.mean_query_size);
  config.scheduler.max_batch_samples = args.uint("--max-batch", 256);
  config.scheduler.max_delay_s = args.num("--max-delay-ms", 2.0) * 1e-3;
  config.load.seed = args.u64("--seed", config.load.seed);
  config.seed = config.load.seed;
  config.replicas = static_cast<unsigned>(args.uint("--replicas", 0));
  config.model.arch = parse_model_arch(args.str("--model", "dlrm"));
  const std::string codec = args.str("--codec", "hybrid");
  const double eb = args.num("--eb", 0.01);
  const std::string checkpoint = args.str("--checkpoint");
  const std::size_t shards = args.uint("--shards", 0);
  const double slo_ms = args.num("--slo-ms", 0.0);
  if (slo_ms > 0.0) {
    config.scheduler.slo_s = slo_ms * 1e-3;
    config.scheduler.modeled_servers = std::max<std::size_t>(
        1, config.replicas > 0 ? config.replicas
                               : std::thread::hardware_concurrency());
  }

  (void)get_compressor(codec);  // fail on unknown codecs before serving
  config.engine.checkpoint_path = checkpoint;

  // Optional live observability plane: /metrics, /healthz, /readyz,
  // /status on loopback for the duration of the run (+ linger).
  MetricsRegistry live_metrics;
  StatusBoard board;
  std::mutex report_mutex;
  MetricsSnapshot last_report;  // latest end-of-run snapshot, for /metrics
  std::unique_ptr<ObservabilityServer> obs;
  if (args.has("--metrics-port")) {
    ObservabilityConfig obs_config;
    obs_config.http.port =
        static_cast<std::uint16_t>(args.uint("--metrics-port", 0));
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

  board.set_state("serving exact");
  config.engine.codec.clear();
  ServingReport exact = ServingSimulator(config).run();
  {
    std::lock_guard lock(report_mutex);
    last_report = exact.metrics;
  }

  const char* variant = shards > 0 ? "sharded" : "compressed";
  board.set_state(shards > 0 ? "serving sharded" : "serving compressed");
  if (shards > 0) {
    config.store.num_shards = shards;
    config.store.rows_per_page = args.uint("--rows-per-page", 256);
    config.store.cache_budget_bytes = static_cast<std::size_t>(
        args.num("--cache-mb", 4.0) * 1024.0 * 1024.0);
    config.store.codec = codec == "none" ? "" : codec;
    config.store.error_bound = eb;
  } else {
    config.engine.codec = codec;
    config.engine.error_bound = eb;
  }
  ServingReport compressed = ServingSimulator(config).run();
  {
    std::lock_guard lock(report_mutex);
    last_report = compressed.metrics;
  }
  board.set_state("done");

  std::printf("exact:      %s\n", format_latency(exact.latency).c_str());
  std::printf("%s: %s  (%s eb=%g)\n\n", variant,
              format_latency(compressed.latency).c_str(), codec.c_str(), eb);
  const std::pair<std::string, const ServingReport*> rows[] = {
      {"exact", &exact}, {variant, &compressed}};
  std::printf("%s\n", format_serving_table(rows).c_str());
  std::printf(
      "achieved qps: exact %.0f, %s %.0f (offered %.0f); "
      "%s max lookup error %.6g (bound %g)\n",
      exact.achieved_qps, variant, compressed.achieved_qps, exact.offered_qps,
      variant, compressed.max_lookup_error, eb);
  if (shards > 0) {
    const ShardStoreStats& s = compressed.store_stats;
    std::printf(
        "store: %zu shards, %zu rows/page, cache %zu/%zu rows resident, "
        "hit rate %.3f (%llu hits, %llu misses, %llu evictions), "
        "%llu pages decompressed, at-rest ratio %.2f\n",
        shards, config.store.rows_per_page, s.resident_rows, s.capacity_rows,
        s.hit_rate(), static_cast<unsigned long long>(s.hits),
        static_cast<unsigned long long>(s.misses),
        static_cast<unsigned long long>(s.evictions),
        static_cast<unsigned long long>(s.pages_loaded), s.ratio());
  }
  if (config.scheduler.slo_s > 0.0) {
    std::printf("slo: %.2f ms, shed %zu/%zu queries (%.3f)\n", slo_ms,
                compressed.shed_queries, compressed.queries,
                compressed.shed_rate);
  }

  if (obs != nullptr) {
    const auto linger_ms = args.uint("--linger-ms", 0);
    if (linger_ms > 0) {
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
    }
    board.set_ready(false);  // drain: /readyz flips before the port dies
    obs->stop();
  }
  return 0;
}

// ----------------------------------------------------------------- trace

constexpr const char* kTraceUsage =
    "usage: dlcomp trace [--out PREFIX] [--mode train|serve]\n"
    "    [--world N] [--iters N] [--batch N] [--stages N] [--no-overlap]\n"
    "    [--codec NAME|none] [--eb X] [--dataset kaggle|terabyte|small]\n"
    "    [--queries N] [--qps X] [--ring N] [--seed N] [--label S]\n"
    "    [--force]\n"
    "runs an instrumented scenario and writes PREFIX.trace.json (Chrome\n"
    "trace-event JSON; open in Perfetto or chrome://tracing -- pid 0 is\n"
    "the wall clock per thread, pid 1 the simulated clock per rank with\n"
    "hidden communication as async slices), PREFIX.metrics.txt (the\n"
    "run's flattened metrics snapshot, one `name value` line per key)\n"
    "and PREFIX.run.json (the run manifest `dlcomp obs diff` consumes).\n"
    "The PREFIX directory must exist, and existing outputs are not\n"
    "overwritten without --force -- both checked before the run\n";

int cmd_trace(int argc, char** argv) {
  const ArgParser args(argc, argv, 2,
                       {"--out", "--mode", "--world", "--iters", "--batch",
                        "--stages", "--codec", "--eb", "--dataset",
                        "--queries", "--qps", "--ring", "--seed", "--label"},
                       {"--no-overlap", "--force"});
  if (!args.positionals().empty()) throw Error("trace takes no positionals");

  const std::string out = args.str("--out", "dlcomp");
  const std::string mode = args.str("--mode", "train");
  const std::string trace_path = out + ".trace.json";
  const std::string metrics_path = out + ".metrics.txt";
  const std::string manifest_path = out + ".run.json";
  const std::uint64_t seed = args.u64("--seed", 42);

  // Validate the output prefix before burning minutes on the workload:
  // the directory must exist, and existing outputs are only replaced
  // when --force says so.
  {
    namespace fs = std::filesystem;
    const fs::path parent = fs::path(out).parent_path();
    if (!parent.empty() && !fs::is_directory(parent)) {
      throw Error("output directory does not exist: " + parent.string() +
                  " (create it first; --out " + out + ")");
    }
    if (!args.has("--force")) {
      for (const std::string& path :
           {trace_path, metrics_path, manifest_path}) {
        if (fs::exists(path)) {
          throw Error("output exists: " + path +
                      " (pass --force to overwrite)");
        }
      }
    }
  }
  const DatasetSpec spec = spec_by_name(args.str("--dataset", "small"));
  std::string codec = args.str("--codec", "hybrid");
  if (codec == "none") codec.clear();
  if (!codec.empty()) (void)get_compressor(codec);  // fail before running
  const double eb = args.num("--eb", 0.01);
  const std::size_t ring =
      args.uint("--ring", Tracer::kDefaultRingCapacity);

  Tracer& tracer = Tracer::instance();
  MetricsSnapshot metrics;

  if (mode == "train") {
    // Default scenario: pipelined-overlap compressed training at world 8,
    // the configuration whose hidden-vs-exposed comm the trace is for.
    TrainerConfig config;
    config.world = static_cast<int>(args.uint("--world", 8));
    config.iterations = args.uint("--iters", 4);
    config.global_batch = args.uint("--batch", 1024);
    config.record_every = 1;
    config.seed = seed;
    config.compression.codec = codec;
    config.compression.global_eb = eb;
    config.overlap.forward = !args.has("--no-overlap");
    config.overlap.backward = config.overlap.forward;
    config.overlap.pipeline_stages = args.uint("--stages", 4);
    const SyntheticClickDataset data(spec, seed);

    tracer.enable(ring);
    const TrainingResult result = HybridParallelTrainer(config).train(data);
    tracer.disable();
    metrics = result.metrics;
    std::printf(
        "traced %zu iterations at world=%d (%s): sim makespan %.3f ms, "
        "exposed comm %.3f ms, hidden comm %.3f ms\n",
        config.iterations, config.world,
        codec.empty() ? "uncompressed" : codec.c_str(),
        result.makespan_seconds * 1e3, result.exposed_comm_seconds() * 1e3,
        result.hidden_comm_seconds() * 1e3);
  } else if (mode == "serve") {
    ServingConfig config;
    config.spec = spec;
    config.load.num_queries = args.uint("--queries", 1000);
    config.load.qps = args.num("--qps", 2000.0);
    config.load.seed = seed;
    config.seed = seed;
    config.engine.codec = codec;
    config.engine.error_bound = eb;
    ServingSimulator simulator(config);

    tracer.enable(ring);
    const ServingReport report = simulator.run();
    tracer.disable();
    metrics = report.metrics;
    std::printf("traced %zu queries in %zu batches: achieved %.0f qps "
                "(offered %.0f), p99 %.3f ms\n",
                report.queries, report.batches, report.achieved_qps,
                report.offered_qps, report.latency.p99_s * 1e3);
  } else {
    throw Error("unknown --mode: " + mode + " (expected train|serve)");
  }

  // Fold in process-global codec metrics -- the dispatched SIMD tier and
  // blocked-codec block counters live in MetricsRegistry::global(), not
  // in the scenario's own registry.
  for (const auto& [name, value] :
       MetricsRegistry::global().snapshot().values) {
    metrics.set(name, value);
  }

  tracer.export_chrome_trace(trace_path);
  std::ofstream os(metrics_path);
  if (!os.good()) throw Error("cannot open for writing: " + metrics_path);
  os << metrics.to_text();
  if (!os.good()) throw Error("write failed: " + metrics_path);

  // Run manifest: everything `dlcomp obs diff` needs to compare this run
  // against another, in one self-describing file.
  RunManifest manifest;
  manifest.label = args.str("--label", out);
  manifest.mode = mode;
  manifest.codec = codec;
  manifest.error_bound = eb;
  manifest.seed = seed;
  manifest.created = utc_now_iso8601();
  manifest.config["mode"] = mode;
  manifest.config["dataset"] = args.str("--dataset", "small");
  manifest.config["codec"] = codec.empty() ? "none" : codec;
  manifest.config["eb"] = std::to_string(eb);
  manifest.config["seed"] = std::to_string(seed);
  // Which SIMD tier the codec hot path dispatched to (DLCOMP_SIMD env
  // override included), so `dlcomp obs diff` surfaces ISA changes between
  // runs. Kept a value-class metric: cross-machine diffs report it as a
  // change, not a regression.
  manifest.config["simd_isa"] =
      std::string(simd::isa_name(kernels::dispatched_isa()));
  if (mode == "train") {
    manifest.config["world"] = std::to_string(args.uint("--world", 8));
    manifest.config["iters"] = std::to_string(args.uint("--iters", 4));
    manifest.config["batch"] = std::to_string(args.uint("--batch", 1024));
    manifest.config["overlap"] = args.has("--no-overlap") ? "off" : "on";
    manifest.config["transport_backend"] = "sim";  // trace always runs sim
  } else {
    manifest.config["queries"] = std::to_string(args.uint("--queries", 1000));
    manifest.config["qps"] = std::to_string(args.num("--qps", 2000.0));
  }
  manifest.metrics = metrics.values;
  manifest.save(manifest_path);

  std::uint64_t events = 0;
  for (const auto& thread : tracer.collect()) events += thread.events.size();
  std::printf(
      "wrote %s (%llu events, %llu dropped), %s (%zu metrics) and %s\n",
      trace_path.c_str(), static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(tracer.dropped_events()),
      metrics_path.c_str(), metrics.values.size(), manifest_path.c_str());
  return 0;
}

// ------------------------------------------------------------------- obs

constexpr const char* kObsUsage =
    "usage: dlcomp obs diff <reference> <candidate> [--rel-tol X]\n"
    "           [--ignore SUBSTR[,SUBSTR...]] [--json] [--strict-values]\n"
    "           [--strict-keys]\n"
    "compares two runs' numeric metrics and exits 0 (ok) or 1\n"
    "(regression). Inputs may be run manifests (*.run.json), Chrome\n"
    "trace files (per-phase spans aggregate to trace/<name>_s), or any\n"
    "numeric JSON report (BENCH_codec.json). Keys containing 'crc' or\n"
    "'grow' must match exactly; timing-ish keys regress when the\n"
    "candidate is slower than reference * (1 + rel-tol) (default 0.25);\n"
    "other keys moving beyond the band report as changes unless\n"
    "--strict-values promotes them. --ignore drops machine-dependent\n"
    "keys (comma-separated substrings); --json prints the machine\n"
    "verdict\n";

int cmd_obs(int argc, char** argv) {
  const ArgParser args(argc, argv, 2, {"--rel-tol", "--ignore"},
                       {"--json", "--strict-values", "--strict-keys"});
  const auto& pos = args.positionals();
  if (pos.size() != 3 || pos[0] != "diff") {
    std::fprintf(stderr, "%s", kObsUsage);
    return 2;
  }

  DiffOptions options;
  options.rel_tol = args.num("--rel-tol", 0.25);
  options.strict_values = args.has("--strict-values");
  options.strict_keys = args.has("--strict-keys");
  std::string ignore = args.str("--ignore");
  while (!ignore.empty()) {
    const std::size_t comma = ignore.find(',');
    const std::string part = ignore.substr(0, comma);
    if (!part.empty()) options.ignore.push_back(part);
    if (comma == std::string::npos) break;
    ignore.erase(0, comma + 1);
  }

  RunManifest ref_manifest;
  RunManifest cand_manifest;
  const auto reference = load_comparable_metrics(pos[1], &ref_manifest);
  const auto candidate = load_comparable_metrics(pos[2], &cand_manifest);
  const DiffReport report = diff_metrics(reference, candidate, options);

  if (args.has("--json")) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    if (!ref_manifest.label.empty() || !cand_manifest.label.empty()) {
      std::printf("reference: %s  candidate: %s\n",
                  ref_manifest.label.empty() ? pos[1].c_str()
                                             : ref_manifest.label.c_str(),
                  cand_manifest.label.empty() ? pos[2].c_str()
                                              : cand_manifest.label.c_str());
    }
    std::printf("%s", report.to_text().c_str());
  }
  return report.ok() ? 0 : 1;
}

// ------------------------------------------------------------------ ckpt

constexpr const char* kCkptUsage =
    "usage: dlcomp ckpt save <out.dlck> [--dataset kaggle|terabyte|small]\n"
    "           [--iters N] [--codec NAME] [--eb X] [--plan plan.txt]\n"
    "           [--seed N] [--optimizer sgd|adagrad]\n"
    "       dlcomp ckpt inspect <in.dlck>\n"
    "       dlcomp ckpt verify  <in.dlck>\n"
    "       dlcomp ckpt diff    <a.dlck> <b.dlck>\n";

const char* section_name(CkptSection type) {
  switch (type) {
    case CkptSection::kMeta: return "meta";
    case CkptSection::kMlpBottom: return "mlp-bottom";
    case CkptSection::kMlpTop: return "mlp-top";
    case CkptSection::kTableFull: return "table";
    case CkptSection::kTableDelta: return "table-delta";
    case CkptSection::kOptState: return "opt-state";
    case CkptSection::kOptDelta: return "opt-delta";
  }
  return "?";
}

int cmd_ckpt_save(const ArgParser& args) {
  const std::string out = args.positional(1);
  const DatasetSpec spec = spec_by_name(args.str("--dataset", "small"));
  const std::size_t iters = args.uint("--iters", 50);
  const std::uint64_t seed = args.u64("--seed", 2024);

  DlrmConfig model_config;
  const std::string optimizer = args.str("--optimizer", "sgd");
  if (optimizer == "adagrad") {
    model_config.embedding_optimizer = EmbeddingOptimizerKind::kAdagrad;
  } else if (optimizer != "sgd") {
    throw Error("unknown optimizer: " + optimizer);
  }

  const SyntheticClickDataset dataset(spec, seed);
  DlrmModel model(spec, model_config, seed);
  double loss = 0.0;
  for (std::size_t i = 0; i < iters; ++i) {
    loss = model.train_step(dataset.make_batch(spec.default_batch, i)).loss;
  }

  // Bounds either global (--eb) or per-table from an offline-analysis
  // plan (--plan, as written by `dlcomp analyze`).
  CheckpointOptions options;
  if (args.has("--plan")) {
    options = checkpoint_options_from(load_plan(args.str("--plan")));
    if (args.has("--codec")) options.codec = args.str("--codec");
    DLCOMP_CHECK_MSG(options.table_eb.size() == spec.num_tables(),
                     "plan covers " << options.table_eb.size()
                                    << " tables, dataset has "
                                    << spec.num_tables());
  } else {
    options.codec = args.str("--codec");
    options.global_eb = args.num("--eb", 0.01);
  }
  ThreadPool pool;
  options.pool = &pool;
  CheckpointWriter writer(options);
  writer.save_full(out, make_model_state(model, iters, seed));

  const ContainerInfo info = inspect_checkpoint(out);
  std::printf(
      "trained %s for %zu iterations (final loss %.4f); wrote %s\n"
      "  %zu tables, %zu -> %zu table bytes (%.2fx), file %zu bytes, "
      "codec %s\n",
      spec.name.c_str(), iters, loss, out.c_str(), spec.num_tables(),
      info.table_raw_bytes, info.table_stored_bytes,
      info.table_stored_bytes > 0
          ? static_cast<double>(info.table_raw_bytes) /
                static_cast<double>(info.table_stored_bytes)
          : 0.0,
      info.file_bytes, options.codec.empty() ? "none (raw)" : options.codec.c_str());
  return 0;
}

int cmd_ckpt_inspect(const ArgParser& args) {
  const ContainerInfo info = inspect_checkpoint(args.positional(1));
  std::printf("kind:        %s\n",
              info.header.kind == CkptKind::kFull ? "full" : "delta");
  std::printf("id:          %016llx\n",
              static_cast<unsigned long long>(info.header.checkpoint_id));
  if (info.header.kind == CkptKind::kDelta) {
    std::printf("parent:      %s (id %016llx)\n", info.parent_file.c_str(),
                static_cast<unsigned long long>(info.header.parent_id));
  }
  std::printf("iteration:   %llu\n",
              static_cast<unsigned long long>(info.header.iteration));
  std::printf("seed:        %llu\n",
              static_cast<unsigned long long>(info.header.seed));
  std::printf("codec:       %s\n",
              info.codec.empty() ? "none (raw)" : info.codec.c_str());
  std::printf("file bytes:  %zu\n", info.file_bytes);
  if (info.table_stored_bytes > 0) {
    std::printf("tables:      %zu -> %zu bytes (%.2fx)\n",
                info.table_raw_bytes, info.table_stored_bytes,
                static_cast<double>(info.table_raw_bytes) /
                    static_cast<double>(info.table_stored_bytes));
  }
  if (info.header.kind == CkptKind::kDelta) {
    std::printf("touched rows:%zu\n", info.delta_touched_rows);
  }
  TablePrinter table({"section", "id", "payload bytes"});
  for (const auto& section : info.sections) {
    table.add_row({section_name(section.type), std::to_string(section.id),
                   std::to_string(section.bytes)});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}

int cmd_ckpt_verify(const ArgParser& args) {
  const std::string path = args.positional(1);
  // Pass 1: container-level structure + per-section CRCs.
  const ContainerInfo info = inspect_checkpoint(path);
  // Pass 2: full chain replay, decoding every payload.
  ThreadPool pool;
  const LoadedCheckpoint loaded = CheckpointReader(&pool).load(path);
  std::size_t values = 0;
  for (const auto& table : loaded.tables) values += table.values.size();
  std::printf(
      "%s: OK (%s, %zu sections, chain length %zu, %zu tables, "
      "%zu embedding values, iteration %llu)\n",
      path.c_str(), info.header.kind == CkptKind::kFull ? "full" : "delta",
      info.sections.size(), loaded.chain_length, loaded.tables.size(), values,
      static_cast<unsigned long long>(loaded.header.iteration));
  return 0;
}

int cmd_ckpt_diff(const ArgParser& args) {
  ThreadPool pool;
  const CheckpointReader reader(&pool);
  const LoadedCheckpoint a = reader.load(args.positional(1));
  const LoadedCheckpoint b = reader.load(args.positional(2));
  if (a.tables.size() != b.tables.size()) {
    std::printf("table count differs: %zu vs %zu\n", a.tables.size(),
                b.tables.size());
    return 1;
  }

  auto span_max_diff = [](std::span<const float> x, std::span<const float> y) {
    double max_diff = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      max_diff = std::max(max_diff,
                          static_cast<double>(std::fabs(x[i] - y[i])));
    }
    return max_diff;
  };

  double mlp_diff = 0.0;
  bool mlp_shape_ok = a.bottom_params.size() == b.bottom_params.size() &&
                      a.top_params.size() == b.top_params.size();
  if (mlp_shape_ok) {
    for (std::size_t v = 0; v < a.bottom_params.size(); ++v) {
      if (a.bottom_params[v].size() != b.bottom_params[v].size()) {
        mlp_shape_ok = false;
        break;
      }
      mlp_diff = std::max(
          mlp_diff, span_max_diff(a.bottom_params[v], b.bottom_params[v]));
    }
    for (std::size_t v = 0; mlp_shape_ok && v < a.top_params.size(); ++v) {
      if (a.top_params[v].size() != b.top_params[v].size()) {
        mlp_shape_ok = false;
        break;
      }
      mlp_diff =
          std::max(mlp_diff, span_max_diff(a.top_params[v], b.top_params[v]));
    }
  }

  TablePrinter table({"table", "rows", "dim", "max |a-b|", "rows differing"});
  double global_max = 0.0;
  std::size_t mismatched_shapes = 0;
  for (std::size_t t = 0; t < a.tables.size(); ++t) {
    const LoadedTable& ta = a.tables[t];
    const LoadedTable& tb = b.tables[t];
    if (ta.rows != tb.rows || ta.dim != tb.dim) {
      table.add_row({std::to_string(t),
                     std::to_string(ta.rows) + "/" + std::to_string(tb.rows),
                     std::to_string(ta.dim) + "/" + std::to_string(tb.dim),
                     "shape mismatch", "-"});
      ++mismatched_shapes;
      continue;
    }
    double max_diff = 0.0;
    std::size_t rows_differing = 0;
    for (std::size_t r = 0; r < ta.rows; ++r) {
      const double row_diff = span_max_diff(
          std::span<const float>(ta.values).subspan(r * ta.dim, ta.dim),
          std::span<const float>(tb.values).subspan(r * ta.dim, ta.dim));
      if (row_diff > 0.0) ++rows_differing;
      max_diff = std::max(max_diff, row_diff);
    }
    global_max = std::max(global_max, max_diff);
    table.add_row({std::to_string(t), std::to_string(ta.rows),
                   std::to_string(ta.dim), TablePrinter::num(max_diff, 6),
                   std::to_string(rows_differing)});
  }
  std::printf("%s\n", table.to_string().c_str());
  if (mlp_shape_ok) {
    std::printf("mlp max |a-b|: %.6g\n", mlp_diff);
  } else {
    std::printf("mlp shapes differ\n");
  }
  std::printf("embedding max |a-b|: %.6g\n", global_max);
  const bool identical = mismatched_shapes == 0 && global_max == 0.0 &&
                         mlp_shape_ok && mlp_diff == 0.0;
  std::printf("%s\n", identical ? "checkpoints are identical"
                                : "checkpoints differ");
  return identical ? 0 : 1;  // diff semantics: nonzero on any difference
}

int cmd_ckpt(int argc, char** argv) {
  const ArgParser args(argc, argv, 2,
                       {"--dataset", "--iters", "--codec", "--eb", "--plan",
                        "--seed", "--optimizer"});
  const auto& pos = args.positionals();
  if (pos.empty()) {
    std::fprintf(stderr, "%s", kCkptUsage);
    return 2;
  }
  const std::string& verb = pos[0];
  if (verb == "save" && pos.size() == 2) return cmd_ckpt_save(args);
  if (verb == "inspect" && pos.size() == 2) return cmd_ckpt_inspect(args);
  if (verb == "verify" && pos.size() == 2) return cmd_ckpt_verify(args);
  if (verb == "diff" && pos.size() == 3) return cmd_ckpt_diff(args);
  std::fprintf(stderr, "%s", kCkptUsage);
  return 2;
}

// ------------------------------------------------------------------ data

constexpr const char* kDataUsage =
    "usage: dlcomp data convert <in.tsv> <out-dir>\n"
    "           [--samples-per-shard N] [--max-samples N] [--threads N]\n"
    "           [--dense N] [--cat N]\n"
    "       dlcomp data inspect <shard.dlshard>\n"
    "       dlcomp data stats   <dir> [--dataset kaggle|terabyte|small]\n"
    "           [--batches N] [--batch N] [--mode mmap|buffered]\n";

int cmd_data_convert(const ArgParser& args) {
  ConvertOptions options;
  options.input_tsv = args.positional(1);
  options.output_dir = args.positional(2);
  options.samples_per_shard = args.uint("--samples-per-shard", 65536);
  options.max_samples = args.uint("--max-samples", 0);
  options.num_dense = args.uint("--dense", 13);
  options.num_cat = args.uint("--cat", 26);

  const std::size_t threads = args.uint("--threads", 0);
  ThreadPool pool(static_cast<unsigned>(threads));
  options.pool = &pool;

  const ConvertReport report = convert_criteo_tsv(options);
  std::printf(
      "converted %zu samples into %zu shards (%zu malformed lines "
      "skipped)\n%llu TSV bytes -> %llu shard bytes in %.2f s "
      "(%.1f MB/s, %u threads)\n",
      report.samples, report.shards, report.malformed_lines,
      static_cast<unsigned long long>(report.input_bytes),
      static_cast<unsigned long long>(report.shard_bytes), report.seconds,
      report.convert_mb_per_s(), pool.thread_count());
  return report.samples > 0 ? 0 : 1;
}

int cmd_data_inspect(const ArgParser& args) {
  const auto bytes = read_file(args.positional(1));
  const ShardView view = decode_shard(bytes);
  std::printf("version:     %d\n", kShardVersion);
  std::printf("num dense:   %u\n", view.header.num_dense);
  std::printf("num tables:  %u\n", view.header.num_cat);
  std::printf("samples:     %u\n", view.header.sample_count);
  std::printf("sections:    %u\n", view.header.section_count);
  std::printf("file bytes:  %zu\n", bytes.size());
  std::printf("crc:         OK (all sections verified)\n");
  double positives = 0.0;
  for (const float label : view.labels) positives += label;
  if (view.sample_count() > 0) {
    std::printf("label rate:  %.4f\n",
                positives / static_cast<double>(view.sample_count()));
  }
  return 0;
}

int cmd_data_stats(const ArgParser& args) {
  const DatasetSpec spec = spec_by_name(args.str("--dataset", "kaggle"));
  ShardReaderConfig reader_config;
  const std::string mode = args.str("--mode", "mmap");
  if (mode == "buffered") {
    reader_config.mode = ShardIoMode::kBuffered;
  } else if (mode != "mmap") {
    throw Error("unknown mode: " + mode + " (expected mmap|buffered)");
  }
  const ShardedDatasetReader reader(spec, args.positional(1), reader_config);

  TablePrinter table({"shard", "samples", "bytes", "first sample"});
  for (const auto& shard : reader.shards()) {
    table.add_row({std::filesystem::path(shard.path).filename().string(),
                   std::to_string(shard.samples),
                   std::to_string(shard.file_bytes),
                   std::to_string(shard.first_sample)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("train: %llu samples | eval holdout: %llu samples in %zu "
              "shards | %zu shards total (%zu empty skipped), "
              "%zu tables x %zu dense, mode %s\n",
              static_cast<unsigned long long>(reader.num_samples()),
              static_cast<unsigned long long>(reader.num_eval_samples()),
              reader.num_eval_shards(), reader.shards().size(),
              reader.empty_shards_skipped(), spec.num_tables(),
              spec.num_dense, mode.c_str());

  // Streaming read-throughput probe over the requested batch budget.
  const std::size_t batch = args.uint("--batch", spec.default_batch);
  const std::size_t batches = args.uint("--batches", 64);
  ShardBatchStream stream(reader, batch);
  SampleBatch scratch;
  WallTimer timer;
  for (std::size_t b = 0; b < batches; ++b) stream.next(scratch);
  const double seconds = timer.seconds();
  const double bytes_read =
      static_cast<double>(stream.samples_delivered()) *
      (static_cast<double>(spec.num_dense + 1) * sizeof(float) +
       static_cast<double>(spec.num_tables()) * sizeof(std::uint32_t));
  std::printf(
      "read %zu batches x %zu samples in %.3f s: %.1f MB/s, "
      "%llu grow events, epoch %llu\n",
      batches, batch, seconds,
      seconds > 0 ? bytes_read / seconds / 1e6 : 0.0,
      static_cast<unsigned long long>(stream.grow_events()),
      static_cast<unsigned long long>(stream.epoch()));
  return 0;
}

int cmd_data(int argc, char** argv) {
  const ArgParser args(argc, argv, 2,
                       {"--samples-per-shard", "--max-samples", "--threads",
                        "--dense", "--cat", "--dataset", "--batches",
                        "--batch", "--mode"});
  const auto& pos = args.positionals();
  if (pos.empty()) {
    std::fprintf(stderr, "%s", kDataUsage);
    return 2;
  }
  const std::string& verb = pos[0];
  if (verb == "convert" && pos.size() == 3) return cmd_data_convert(args);
  if (verb == "inspect" && pos.size() == 2) return cmd_data_inspect(args);
  if (verb == "stats" && pos.size() == 2) return cmd_data_stats(args);
  std::fprintf(stderr, "%s", kDataUsage);
  return 2;
}

int cmd_codecs() {
  std::printf("registered codecs:\n");
  for (const auto name : all_compressor_names()) {
    const Compressor& codec = get_compressor(name);
    std::printf("  %-14s %s\n", std::string(name).c_str(),
                codec.lossy() ? "lossy (error-bounded or fixed-rate)"
                              : "lossless");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  // Interactive tool: surface info-level structured logs on stderr (the
  // library default stays kWarn so tests and benches run quiet).
  Logger::global().set_min_level(LogLevel::kInfo);
  try {
    if (command == "compress") return cmd_compress(argc, argv);
    if (command == "decompress") return cmd_decompress(argc, argv);
    if (command == "inspect") return cmd_inspect(argc, argv);
    if (command == "analyze") return cmd_analyze(argc, argv);
    if (command == "train") return cmd_train(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "trace") return cmd_trace(argc, argv);
    if (command == "ckpt") return cmd_ckpt(argc, argv);
    if (command == "data") return cmd_data(argc, argv);
    if (command == "obs") return cmd_obs(argc, argv);
    if (command == "codecs") return cmd_codecs();
    std::fprintf(stderr,
                 "dlcomp -- error-bounded compression for DLRM training\n"
                 "commands: compress decompress inspect analyze train serve "
                 "trace ckpt data obs codecs\n");
    return command.empty() ? 2 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    if (command == "train") std::fprintf(stderr, "%s", kTrainUsage);
    if (command == "serve") std::fprintf(stderr, "%s", kServeUsage);
    if (command == "trace") std::fprintf(stderr, "%s", kTraceUsage);
    if (command == "ckpt") std::fprintf(stderr, "%s", kCkptUsage);
    if (command == "data") std::fprintf(stderr, "%s", kDataUsage);
    if (command == "obs") std::fprintf(stderr, "%s", kObsUsage);
    return 1;
  }
}
