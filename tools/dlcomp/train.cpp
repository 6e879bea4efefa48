// `dlcomp train`: hybrid-parallel training over the sim or tcp backend.

#include <sys/wait.h>
#include <unistd.h>

#include "cli.hpp"
#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/net.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace dlcomp::cli {
namespace {

constexpr FlagSpec kTrainFlags[] = {
    {"--backend", "sim|tcp", "sim", "ranks are threads here, or processes over TCP"},
    {"--world", "N", "4", "number of ranks"},
    {"--iters", "N", "24", "training iterations"},
    {"--batch", "N", "256", "global batch size"},
    {"--codec", "NAME|none", "hybrid", "all-to-all codec"},
    {"--eb", "X", "0.01", "global error bound"},
    {"--stages", "N", "2", "pipeline stages per all-to-all"},
    {"--no-overlap", "", "", "do not overlap communication with compute"},
    {"--dataset", "kaggle|terabyte|small", "small", "synthetic dataset shape"},
    {"--seed", "N", "42", "data and model seed"},
    {"--record-every", "N", "4", "iterations between history records"},
    {"--eval-every", "N", "0", "iterations between evals (0: at the end only)"},
    {"--history-out", "FILE", "", "write the loss history, wire CRC and sim makespan"},
    {"--manifest-out", "FILE", "", "write the run manifest `dlcomp obs diff` reads"},
    {"--label", "S", "train", "manifest label"},
    {"--trace", "FILE", "", "write rank 0's Chrome trace"},
    {"--rank", "N", "", "tcp: join an existing group as this rank"},
    {"--listen-fd", "FD", "", "tcp --rank 0: accept on this pre-bound listener"},
    {"--port", "N", "0", "tcp: rank 0's rendezvous port (0: ephemeral)"},
    {"--address", "A", "127.0.0.1", "tcp: rank 0's rendezvous address"},
};

JsonValue object_of(std::initializer_list<std::pair<const char*, double>> fields) {
  JsonValue object = JsonValue::object();
  for (const auto& [key, value] : fields) object.set(key, JsonValue(value));
  return object;
}

/// Backend-independent run record with doubles that round-trip exactly,
/// so two runs write byte-identical files iff their recorded trajectories,
/// wire CRCs and simulated makespans are bitwise identical.
void write_history_json(const std::string& path, const TrainerConfig& config,
                        const TrainingResult& result) {
  JsonValue doc = object_of(
      {{"world", config.world}, {"iterations", config.iterations},
       {"start_iteration", result.start_iteration}, {"wire_crc32", result.wire_crc32},
       {"makespan_seconds", result.makespan_seconds},
       {"final_eval_loss", result.final_eval.loss},
       {"final_eval_accuracy", result.final_eval.accuracy}});
  JsonValue history = JsonValue::array();
  for (const IterationRecord& rec : result.history) {
    history.push_back(object_of(
        {{"iter", rec.iter}, {"train_loss", rec.train_loss},
         {"train_accuracy", rec.train_accuracy}, {"eval_accuracy", rec.eval_accuracy},
         {"forward_cr", rec.forward_cr}, {"eb_scale", rec.eb_scale}}));
  }
  doc.set("history", std::move(history));
  write_file(path, doc.dump(2) + "\n");
}

/// Runs one training process (the whole cluster under sim; one rank of
/// it under tcp). Only rank 0 traces, prints and writes output files.
int run_train_rank(const ArgParser& args, const TrainerConfig& config) {
  const SyntheticClickDataset dataset(spec_by_name(args.str("--dataset")), config.seed);
  const bool rank0 = config.transport.rank == 0;
  begin_run(args, rank0);
  const TrainingResult result = HybridParallelTrainer(config).train(dataset);
  if (!rank0) return 0;

  const std::string& codec = config.compression.codec;
  std::printf(
      "trained %zu iterations at world=%d over the %s backend (%s): "
      "final loss %.6f, eval accuracy %.4f\n"
      "sim makespan %.3f ms (exposed comm %.3f ms, hidden %.3f ms); "
      "fwd CR %.2fx, bwd CR %.2fx; wire crc32 %08x; wall %.2f s\n",
      config.iterations - result.start_iteration, config.world,
      config.transport.backend.c_str(),
      codec.empty() ? "uncompressed" : codec.c_str(),
      result.history.empty() ? 0.0 : result.history.back().train_loss,
      result.final_eval.accuracy, result.makespan_seconds * 1e3,
      result.exposed_comm_seconds() * 1e3, result.hidden_comm_seconds() * 1e3,
      result.forward_cr(), result.backward_cr(), result.wire_crc32,
      result.wall_seconds);

  if (args.has("--history-out")) {
    write_history_json(args.str("--history-out"), config, result);
  }
  finish_run(args, "train", result.metrics);
  return 0;
}

int cmd_train(const ArgParser& args) {
  TrainerConfig config;
  config.world = static_cast<int>(args.uint("--world"));
  config.iterations = args.uint("--iters");
  config.global_batch = args.uint("--batch");
  config.record_every = args.uint("--record-every");
  config.eval_every = args.uint("--eval-every");
  config.seed = args.u64("--seed");
  config.compression.codec = codec_flag(args);
  config.compression.global_eb = args.num("--eb");
  config.overlap.forward = !args.has("--no-overlap");
  config.overlap.backward = config.overlap.forward;
  config.overlap.pipeline_stages = args.uint("--stages");
  config.transport.backend = args.str("--backend");
  config.transport.address = args.str("--address");
  config.transport.port = static_cast<std::uint16_t>(args.uint("--port"));

  if (config.transport.backend == "sim") return run_train_rank(args, config);
  if (config.transport.backend != "tcp") {
    throw Error("unknown --backend: " + config.transport.backend + " (expected sim|tcp)");
  }
  if (args.has("--rank")) {  // join an externally launched group
    config.transport.rank = static_cast<int>(args.uint("--rank"));
    if (args.has("--listen-fd")) {
      config.transport.inherited_listen_fd = static_cast<int>(args.uint("--listen-fd"));
    }
    return run_train_rank(args, config);
  }

  // Launcher: bind the rendezvous listener *before* forking so --port 0
  // is race-free (rank 0 inherits the bound fd, the others learn the
  // port), run every rank as a child process, and fail if any rank does.
  begin_run(args, false);
  int listen_fd = net::tcp_listen(config.transport.address,
                                  config.transport.port, config.world);
  config.transport.port = net::bound_port(listen_fd);
  std::fflush(stdout);
  std::fflush(stderr);

  std::vector<pid_t> pids(static_cast<std::size_t>(config.world));
  for (int r = 0; r < config.world; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) throw Error("fork failed for rank " + std::to_string(r));
    if (pid == 0) {
      int code = 1;
      try {
        if (r != 0) net::close_fd(listen_fd);  // only rank 0 keeps it
        config.transport.rank = r;
        config.transport.inherited_listen_fd = r == 0 ? listen_fd : -1;
        code = run_train_rank(args, config);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d: error: %s\n", r, e.what());
      }
      std::fflush(stdout);
      std::fflush(stderr);
      _exit(code);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }
  net::close_fd(listen_fd);  // rank 0's child owns the inherited copy

  int failures = 0;
  for (int r = 0; r < config.world; ++r) {
    int status = 0;
    if (::waitpid(pids[static_cast<std::size_t>(r)], &status, 0) < 0 ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++failures;
      std::fprintf(stderr, "rank %d exited abnormally (status 0x%x)\n", r,
                   static_cast<unsigned>(status));
    }
  }
  std::printf("tcp launcher: %d ranks on %s:%u, %s\n", config.world,
              config.transport.address.c_str(),
              static_cast<unsigned>(config.transport.port),
              failures == 0 ? "all exited cleanly" : "with failures (see above)");
  return failures == 0 ? 0 : 1;
}

}  // namespace

extern const Command kTrain{
    "train", "", kTrainFlags, cmd_train,
    "trains the DLRM with dual-level error-bounded all-to-all compression.\n"
    "--backend tcp forks --world rank processes, or with --rank joins an\n"
    "existing group. Sim and tcp --history-out files are byte-identical"};

}  // namespace dlcomp::cli
