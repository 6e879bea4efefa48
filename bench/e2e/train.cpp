// Training workloads: HybridParallelTrainer::train() over a world-4 TCP
// mesh of forked rank processes (the e2e pass), and a layer harness that
// replays the trainer's iteration from public calls with a span around
// every call into a module (the traced pass).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comm/tcp_runtime.hpp"
#include "common/crc32.hpp"
#include "common/json.hpp"
#include "common/net.hpp"
#include "compress/registry.hpp"
#include "core/offline_analyzer.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "dlrm/interaction.hpp"
#include "ledger.hpp"
#include "obs/trace.hpp"
#include "procs.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace dlcomp;

constexpr int kWorld = 4;
constexpr std::size_t kGlobalBatch = 4096;
/// Leading iterations excluded from every timing (buffers and codec
/// workspaces reach their high-water marks).
constexpr std::size_t kWarmup = 2;
/// The model initialization, the click teacher and the held-out set are
/// part of the workload, not of its inputs: the seed picks the training
/// sample stream, so eval loss and the offline analysis' choices compare
/// across seeds.
constexpr std::uint64_t kModelSeed = 42;
constexpr std::uint64_t kDataSeed = 67;
constexpr std::size_t kEvalBatches = 16;

struct TrainWorkload {
  const char* name;
  const char* codec;      ///< registry codec; "" is the uncompressed baseline
  double nominal_iter_s;  ///< sizes the iteration count to --seconds
};

constexpr TrainWorkload kWorkloads[] = {
    {"train-tb-hybrid", "hybrid", 0.15},
    {"train-tb-raw", "", 0.12},
};

const TrainWorkload& find_workload(const std::string& name) {
  for (const TrainWorkload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw Error("unknown training workload: " + name);
}

DatasetSpec workload_spec() { return DatasetSpec::criteo_terabyte_like(20000); }

JsonValue number_array(const std::vector<std::uint64_t>& values) {
  JsonValue array = JsonValue::array();
  for (const std::uint64_t v : values) array.push_back(JsonValue(static_cast<double>(v)));
  return array;
}

/// Batch source the trainer sees: training batch i is the inner source's
/// batch i + offset (the seed's stream), eval batches pass through, and
/// while recording, the start of every make_batch call is timestamped.
/// Rank 0 makes exactly one call per iteration, so consecutive stamps
/// bound its iterations.
class StreamSource final : public BatchSource {
 public:
  StreamSource(const BatchSource& inner, std::uint64_t offset)
      : inner_(inner), offset_(offset) {}

  [[nodiscard]] const DatasetSpec& spec() const noexcept override {
    return inner_.spec();
  }
  [[nodiscard]] SampleBatch make_batch(std::size_t batch_size,
                                       std::uint64_t batch_index) const override {
    if (recording_) {
      const std::lock_guard lock(mutex_);
      starts_ns_.push_back(now_ns());
    }
    if (exit_fd_ >= 0) {
      // Set-up ends here. The process exits before any iteration, so
      // no eval or table sync runs either.
      if (recording_) {
        JsonValue report = JsonValue::object();
        report.set("starts_ns", number_array(starts_ns_));
        write_all(exit_fd_, report.dump());
      }
      _exit(0);
    }
    return inner_.make_batch(batch_size, batch_index + offset_);
  }
  [[nodiscard]] SampleBatch make_eval_batch(
      std::size_t batch_size, std::uint64_t batch_index) const override {
    return inner_.make_eval_batch(batch_size, batch_index);
  }

  void record() { recording_ = true; }
  /// Makes the first training batch end the process, after writing the
  /// stamps (when recording) to `fd`: a launch that measures set-up only.
  void exit_at_first_batch(int fd) { exit_fd_ = fd; }
  [[nodiscard]] const std::vector<std::uint64_t>& starts_ns() const {
    return starts_ns_;
  }

 private:
  const BatchSource& inner_;
  std::uint64_t offset_;
  bool recording_ = false;
  int exit_fd_ = -1;
  mutable std::mutex mutex_;
  mutable std::vector<std::uint64_t> starts_ns_;
};

/// The trainer configuration of a workload, minus the per-rank transport
/// fields. Mirrors `dlcomp train`'s defaults (forward+backward overlap,
/// 2 pipeline stages) at Terabyte shape, with bench_fig12's stepwise
/// iteration-wise decay over the offline analysis' per-table bounds.
TrainerConfig make_config(const TrainWorkload& w, std::size_t iterations,
                          const AnalysisReport* analysis) {
  TrainerConfig config;
  config.world = kWorld;
  config.global_batch = kGlobalBatch;
  config.iterations = iterations;
  config.seed = kModelSeed;
  config.eval_batches = kEvalBatches;
  config.overlap.forward = true;
  config.overlap.backward = true;
  config.overlap.pipeline_stages = 2;
  config.transport.backend = "tcp";
  if (analysis != nullptr) {
    config.compression.codec = w.codec;
    config.compression.table_eb = analysis->table_error_bounds();
    config.compression.table_choice = analysis->table_choices();
    config.compression.scheduler = {.func = DecayFunc::kStepwise,
                                    .initial_scale = 2.0,
                                    .decay_end_iter = iterations / 2,
                                    .num_steps = 2};
  }
  return config;
}

/// The paper's offline stage: per-table error bounds and codec choices,
/// sampled from the dataset's own first batches (not the seed's stream),
/// so every seed trains with the same choices.
AnalysisReport analyze(const BatchSource& data) {
  AnalyzerConfig config;
  config.sample_batches = 2;
  config.sampling_eb = 0.005;
  return OfflineAnalyzer(config).analyze(
      data, make_embedding_set(data.spec(), kModelSeed));
}

double remaining_s(std::uint64_t deadline_ns) {
  const std::uint64_t now = now_ns();
  return deadline_ns > now ? (deadline_ns - now) * 1e-9 : 0.0;
}

/// A number from a rank report; JSON null (how a non-finite value
/// serializes) reads back as NaN, so output checks see it.
double num(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.find(key);
  if (v == nullptr) throw Error("rank report lacks '" + std::string(key) + "'");
  return v->is_number() ? v->as_number() : std::nan("");
}

/// Forks the world's ranks around a rendezvous listener bound here
/// first (rank 0 inherits it, so the ephemeral port is race-free) and
/// waits for all of them. `body(rank, config, fd)` runs in each rank
/// with stdout sent to stderr; `fd` carries its report to the parent.
struct MeshOutcome {
  std::vector<ChildResult> ranks;
  std::string error;  ///< empty when every rank exited 0 in time
};

MeshOutcome run_mesh(
    TrainerConfig config, double deadline_s,
    const std::function<int(int, const TrainerConfig&, int)>& body) {
  int listen_fd = net::tcp_listen("127.0.0.1", 0, kWorld);
  config.transport.port = net::bound_port(listen_fd);
  ChildGroup group;
  for (int r = 0; r < kWorld; ++r) {
    group.spawn([&, r](int fd) {
      ::dup2(STDERR_FILENO, STDOUT_FILENO);
      TrainerConfig mine = config;
      mine.transport.rank = r;
      if (r == 0) {
        mine.transport.inherited_listen_fd = listen_fd;
      } else {
        net::close_fd(listen_fd);
      }
      return body(r, mine, fd);
    });
  }
  net::close_fd(listen_fd);
  MeshOutcome outcome;
  outcome.ranks = group.wait(deadline_s);
  for (std::size_t r = 0; r < outcome.ranks.size(); ++r) {
    const ChildResult& c = outcome.ranks[r];
    if (c.ok) continue;
    outcome.error += "rank " + std::to_string(r) +
                     (c.timed_out ? " timed out; "
                                  : " exited with status " +
                                        std::to_string(c.status) + "; ");
  }
  return outcome;
}

// ------------------------------------------------------------- e2e pass

/// What one trainer launch reports back: rank 0's TrainingResult fields
/// plus its make_batch stamps, and the set-up time measured against the
/// launch start (which precedes the offline analysis).
struct TrainerRun {
  std::string error;
  double setup_s = 0.0;
  std::vector<double> iter_s;  ///< measured iterations, rank 0
  JsonValue report;
};

/// A launch of `iterations`, or with `setup_only` one that every rank
/// ends at its first batch, which leaves set-up as the only thing timed.
TrainerRun launch_trainer(const TrainWorkload& w, const BatchSource& data,
                          std::uint64_t seed, std::size_t iterations,
                          double deadline_s, bool setup_only = false,
                          const AnalysisReport* reuse_analysis = nullptr) {
  const std::uint64_t t0 = now_ns();
  std::optional<AnalysisReport> analysis;
  if (*w.codec != '\0') {
    analysis = reuse_analysis != nullptr ? *reuse_analysis : analyze(data);
  }
  const TrainerConfig config =
      make_config(w, iterations, analysis ? &*analysis : nullptr);

  TrainerRun run;
  const MeshOutcome mesh = run_mesh(
      config, deadline_s, [&](int rank, const TrainerConfig& mine, int fd) {
        StreamSource rank_source(data, seed * kStreamStride);
        if (rank == 0) rank_source.record();
        if (setup_only) rank_source.exit_at_first_batch(fd);
        const TrainingResult result =
            HybridParallelTrainer(mine).train(rank_source);
        if (rank != 0) return 0;
        JsonValue out = JsonValue::object();
        out.set("starts_ns", number_array(rank_source.starts_ns()));
        out.set("eval_loss", JsonValue(result.final_eval.loss));
        out.set("last_loss", JsonValue(result.history.empty()
                                           ? std::nan("")
                                           : result.history.back().train_loss));
        out.set("wire_bytes_sent",
                JsonValue(static_cast<double>(result.wire_bytes_sent)));
        out.set("fwd_raw", JsonValue(static_cast<double>(result.forward_raw_bytes)));
        out.set("fwd_wire",
                JsonValue(static_cast<double>(result.forward_wire_bytes)));
        out.set("bwd_raw",
                JsonValue(static_cast<double>(result.backward_raw_bytes)));
        out.set("bwd_wire",
                JsonValue(static_cast<double>(result.backward_wire_bytes)));
        out.set("wire_crc32", JsonValue(static_cast<double>(result.wire_crc32)));
        // Modelled time per phase, exposed plus hidden behind overlap:
        // what the simulator says the phase costs, set against the wall
        // time the traced pass measures for it.
        std::map<std::string, double> modelled = result.phase_seconds;
        for (const auto& [phase, seconds] : result.hidden_phase_seconds) {
          modelled[phase] += seconds;
        }
        JsonValue phases = JsonValue::object();
        for (const auto& [phase, seconds] : modelled) {
          phases.set(phase, JsonValue(seconds));
        }
        out.set("sim_seconds", std::move(phases));
        write_all(fd, out.dump());
        return 0;
      });
  if (!mesh.error.empty()) {
    run.error = mesh.error;
    return run;
  }
  run.report = json_parse(mesh.ranks[0].output);
  const JsonValue* starts = run.report.find("starts_ns");
  if (starts == nullptr || starts->items().size() != (setup_only ? 1 : iterations)) {
    run.error = "rank 0 did not time every iteration";
    return run;
  }
  const auto& s = starts->items();
  run.setup_s = (s[0].as_number() - static_cast<double>(t0)) * 1e-9;
  // Iteration i runs from its make_batch to the next one; the last
  // iteration has no successor and goes unmeasured.
  for (std::size_t i = kWarmup; i + 1 < s.size(); ++i) {
    run.iter_s.push_back((s[i + 1].as_number() - s[i].as_number()) * 1e-9);
  }
  return run;
}

// ---------------------------------------------------------- traced pass

/// Rank-0 spans, all static strings. The root is one iteration; every
/// call into a module gets its own span so its self time lands in that
/// module's layer. Glue between calls (chunk lists, receive spans) is
/// the root's unattributed self time.
constexpr const char* kIteration = "bench/iteration";

/// One rank of the traced harness: the trainer's rank body (overlap
/// forward+backward, as configured) rebuilt from public calls in the
/// trainer's order. Simulated-clock charges are left out; they change
/// no data. Reports its byte totals and wire CRC, and on rank 0 the
/// last train loss and the span ledger of its main thread.
int harness_rank(int rank, const TrainerConfig& config, int fd,
                 const BatchSource& source, const std::string& trace_path) {
  const DatasetSpec& spec = source.spec();
  const auto world = static_cast<std::size_t>(config.world);
  const std::size_t global_batch = config.global_batch;
  const std::size_t local_batch = global_batch / world;
  const std::size_t dim = spec.embedding_dim;
  const std::size_t num_tables = spec.num_tables();
  const CompressionPolicy& policy = config.compression;
  const Compressor* codec =
      policy.codec.empty() ? nullptr : &get_compressor(policy.codec);
  const ErrorBoundScheduler scheduler(policy.scheduler);
  std::vector<double> table_eb = policy.table_eb;
  if (table_eb.empty()) table_eb.assign(num_tables, policy.global_eb);
  std::vector<HybridChoice> table_choice = policy.table_choice;
  if (table_choice.empty()) table_choice.assign(num_tables, HybridChoice::kAuto);

  std::vector<EmbeddingTable> tables = make_embedding_set(spec, config.seed);
  std::vector<EmbeddingOptimizer> optimizers;
  for (std::size_t t = 0; t < num_tables; ++t) {
    optimizers.emplace_back(config.model.embedding_optimizer,
                            config.model.learning_rate);
  }
  ThreadPool codec_pool(std::min<unsigned>(4, std::thread::hardware_concurrency()));

  std::vector<std::size_t> bdims{spec.num_dense};
  bdims.insert(bdims.end(), config.model.bottom_hidden.begin(),
               config.model.bottom_hidden.end());
  bdims.push_back(dim);
  std::vector<std::size_t> tdims{DotInteraction::output_dim(num_tables, dim)};
  tdims.insert(tdims.end(), config.model.top_hidden.begin(),
               config.model.top_hidden.end());
  tdims.push_back(1);
  Rng mlp_rng(config.seed);
  auto rng_b = mlp_rng.fork({0xB0});
  auto rng_t = mlp_rng.fork({0x70});
  Mlp bottom(bdims, rng_b);
  Mlp top(tdims, rng_t);

  TcpTransportConfig tcfg;
  tcfg.world = config.world;
  tcfg.rank = config.transport.rank;
  tcfg.address = config.transport.address;
  tcfg.port = config.transport.port;
  tcfg.inherited_listen_fd = config.transport.inherited_listen_fd;
  tcfg.connect_timeout_s = config.transport.connect_timeout_s;
  TcpRuntime runtime(tcfg, config.network);
  Communicator& comm = runtime.comm();
  trace_bind_thread_rank(rank);

  std::vector<std::size_t> owned;
  for (std::size_t t = static_cast<std::size_t>(rank); t < num_tables; t += world) {
    owned.push_back(t);
  }
  std::vector<std::vector<std::size_t>> owned_by(world);
  for (std::size_t t = 0; t < num_tables; ++t) owned_by[t % world].push_back(t);

  CompressedAllToAllConfig a2a_config;
  a2a_config.codec = codec;
  a2a_config.pool = &codec_pool;
  a2a_config.device = config.device;
  a2a_config.pipeline_stages = config.overlap.pipeline_stages;
  const CompressedAllToAll a2a(a2a_config);

  std::uint64_t fwd_raw = 0;
  std::uint64_t fwd_wire = 0;
  std::uint64_t bwd_raw = 0;
  std::uint64_t bwd_wire = 0;
  std::uint32_t crc = crc32_init();
  const auto crc_fold = [&crc](std::uint32_t word) {
    crc = crc32_update(crc, std::as_bytes(std::span<const std::uint32_t>(&word, 1)));
  };
  double last_loss = std::nan("");

  std::vector<Matrix> owned_lookup(num_tables);
  std::vector<Matrix> local_lookup(num_tables);
  std::vector<Matrix> demb(num_tables);
  std::vector<Matrix> grad_assembled(num_tables);
  std::vector<float> grad_scratch;
  Matrix local_dense(local_batch, spec.num_dense);
  std::vector<float> local_labels(local_batch);

  Tracer::instance().enable();
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    DLCOMP_TRACE_SPAN(kIteration);
    const double eb_scale = scheduler.scale_at(iter);

    SampleBatch batch;
    {
      DLCOMP_TRACE_SPAN("data/make_batch");
      batch = source.make_batch(global_batch, iter);
      const std::size_t row0 = static_cast<std::size_t>(rank) * local_batch;
      for (std::size_t b = 0; b < local_batch; ++b) {
        for (std::size_t f = 0; f < spec.num_dense; ++f) {
          local_dense(b, f) = batch.dense(row0 + b, f);
        }
        local_labels[b] = batch.labels[row0 + b];
      }
    }
    {
      DLCOMP_TRACE_SPAN("dlrm/emb_lookup");
      for (const std::size_t t : owned) {
        owned_lookup[t].resize(global_batch, dim);
        tables[t].lookup(batch.indices[t], owned_lookup[t]);
      }
    }

    std::vector<std::vector<A2AChunkSpec>> send_fwd(world);
    for (std::size_t d = 0; d < world; ++d) {
      for (const std::size_t t : owned) {
        A2AChunkSpec chunk;
        chunk.data = std::span<const float>(
            owned_lookup[t].data() + d * local_batch * dim, local_batch * dim);
        chunk.params.error_bound = table_eb[t] * eb_scale;
        chunk.params.eb_mode = EbMode::kAbsolute;
        chunk.params.vector_dim = dim;
        chunk.params.hybrid_choice = table_choice[t];
        chunk.tag = static_cast<std::uint32_t>(t);
        send_fwd[d].push_back(chunk);
      }
    }
    std::vector<std::vector<std::span<float>>> recv_fwd(world);
    for (std::size_t s = 0; s < world; ++s) {
      for (const std::size_t t : owned_by[s]) {
        local_lookup[t].resize(local_batch, dim);
        recv_fwd[s].push_back(local_lookup[t].flat());
      }
    }

    // Forward overlap: the bottom MLP runs while the exchange's last
    // group is in flight.
    std::optional<CompressedAllToAll::PendingExchange> pending_fwd;
    {
      DLCOMP_TRACE_SPAN("core/a2a_fwd_begin");
      pending_fwd.emplace(
          a2a.exchange_begin(comm, send_fwd, recv_fwd, phases::kAllToAllFwd));
    }
    const Matrix* z0 = nullptr;
    {
      DLCOMP_TRACE_SPAN("dlrm/bottom_fwd");
      z0 = &bottom.forward(local_dense);
    }
    A2AStats fwd_stats;
    {
      DLCOMP_TRACE_SPAN("core/a2a_fwd_finish");
      fwd_stats = pending_fwd->finish();
    }
    fwd_raw += fwd_stats.send_raw_bytes;
    fwd_wire += fwd_stats.send_wire_bytes;
    crc_fold(fwd_stats.wire_crc32);

    Matrix feat(local_batch, DotInteraction::output_dim(num_tables, dim));
    {
      DLCOMP_TRACE_SPAN("dlrm/interaction_fwd");
      DotInteraction::forward(*z0, local_lookup, feat);
    }
    const Matrix* logits = nullptr;
    {
      DLCOMP_TRACE_SPAN("dlrm/top_fwd");
      logits = &top.forward(feat);
    }
    Matrix dlogits(local_batch, 1);
    LossResult loss;
    {
      DLCOMP_TRACE_SPAN("dlrm/loss");
      loss = bce_with_logits(logits->flat(), local_labels, dlogits.flat());
    }
    Matrix dfeat;
    {
      DLCOMP_TRACE_SPAN("dlrm/top_bwd");
      dfeat = top.backward(dlogits);
    }
    Matrix dz0(local_batch, dim);
    for (std::size_t t = 0; t < num_tables; ++t) demb[t].resize(local_batch, dim);
    {
      DLCOMP_TRACE_SPAN("dlrm/interaction_bwd");
      DotInteraction::backward(*z0, local_lookup, dfeat, dz0,
                               std::span<Matrix>(demb));
    }

    std::vector<std::vector<A2AChunkSpec>> send_bwd(world);
    for (std::size_t d = 0; d < world; ++d) {
      for (const std::size_t t : owned_by[d]) {
        A2AChunkSpec chunk;
        chunk.data = demb[t].flat();
        chunk.params.error_bound = policy.backward_relative_eb;
        chunk.params.eb_mode = EbMode::kRangeRelative;
        chunk.params.vector_dim = dim;
        chunk.params.hybrid_choice = table_choice[t];
        chunk.tag = static_cast<std::uint32_t>(num_tables + t);
        send_bwd[d].push_back(chunk);
      }
    }
    std::vector<std::vector<std::span<float>>> recv_bwd(world);
    for (const std::size_t t : owned) grad_assembled[t].resize(global_batch, dim);
    for (std::size_t s = 0; s < world; ++s) {
      for (const std::size_t t : owned) {
        recv_bwd[s].push_back(std::span<float>(
            grad_assembled[t].data() + s * local_batch * dim, local_batch * dim));
      }
    }

    // Backward overlap: bottom backward first so every MLP gradient
    // exists, the all-reduce issued nonblocking, then the gradient
    // exchange and the embedding update, then the wait.
    {
      DLCOMP_TRACE_SPAN("dlrm/bottom_bwd");
      (void)bottom.backward(dz0);
    }
    PendingCollective pending_ar;
    {
      DLCOMP_TRACE_SPAN("comm/allreduce_issue");
      grad_scratch.clear();
      for (Mlp* mlp : {&bottom, &top}) {
        for (const std::span<float> v : mlp->grad_views()) {
          grad_scratch.insert(grad_scratch.end(), v.begin(), v.end());
        }
      }
      pending_ar = comm.all_reduce_sum_async(grad_scratch, phases::kAllReduce);
    }
    A2AStats bwd_stats;
    {
      DLCOMP_TRACE_SPAN("core/a2a_bwd");
      bwd_stats = a2a.exchange(comm, send_bwd, recv_bwd, phases::kAllToAllBwd);
    }
    bwd_raw += bwd_stats.send_raw_bytes;
    bwd_wire += bwd_stats.send_wire_bytes;
    crc_fold(bwd_stats.wire_crc32);
    {
      DLCOMP_TRACE_SPAN("dlrm/emb_update");
      const float lr_scale = 1.0f / static_cast<float>(world);
      for (const std::size_t t : owned) {
        optimizers[t].apply(tables[t], batch.indices[t], grad_assembled[t],
                            lr_scale);
      }
    }
    {
      DLCOMP_TRACE_SPAN("comm/allreduce_wait");
      (void)pending_ar.wait();
      const float inv_world = 1.0f / static_cast<float>(world);
      std::size_t cursor = 0;
      for (Mlp* mlp : {&bottom, &top}) {
        for (const std::span<float> v : mlp->grad_views()) {
          for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = grad_scratch[cursor + i] * inv_world;
          }
          cursor += v.size();
        }
      }
    }
    {
      DLCOMP_TRACE_SPAN("dlrm/bottom_sgd");
      bottom.sgd_step(config.model.learning_rate);
    }
    {
      DLCOMP_TRACE_SPAN("dlrm/top_sgd");
      top.sgd_step(config.model.learning_rate);
    }
    last_loss = loss.loss;

    // The trainer's record points: a barrier before rank 0 records and
    // one after.
    if (config.record_every == 0 || iter % config.record_every == 0 ||
        iter + 1 == config.iterations) {
      DLCOMP_TRACE_SPAN("comm/barrier");
      comm.barrier();
      comm.barrier();
    }
  }
  Tracer::instance().disable();

  JsonValue out = JsonValue::object();
  out.set("fwd_raw", JsonValue(static_cast<double>(fwd_raw)));
  out.set("fwd_wire", JsonValue(static_cast<double>(fwd_wire)));
  out.set("bwd_raw", JsonValue(static_cast<double>(bwd_raw)));
  out.set("bwd_wire", JsonValue(static_cast<double>(bwd_wire)));
  out.set("crc", JsonValue(static_cast<double>(crc32_final(crc))));
  if (rank == 0) {
    const std::vector<Tracer::ThreadTrace> threads = Tracer::instance().collect();
    std::size_t events = 0;
    const Tracer::ThreadTrace* main_thread = nullptr;
    for (const Tracer::ThreadTrace& t : threads) {
      events += t.events.size() + t.dropped;
      for (const TraceEvent& ev : t.events) {
        if (ev.name != nullptr && std::strcmp(ev.name, kIteration) == 0) {
          main_thread = &t;
          break;
        }
      }
    }
    if (main_thread == nullptr || main_thread->dropped != 0) {
      throw Error("rank 0's iteration spans were not all recorded");
    }
    const SpanLedger ledger = build_ledger(main_thread->events, kIteration, kWarmup);
    JsonValue self = JsonValue::object();
    for (const auto& [name, s] : ledger.self_s) self.set(name, JsonValue(s));
    JsonValue total = JsonValue::object();
    for (const auto& [name, s] : ledger.total_s) total.set(name, JsonValue(s));
    JsonValue roots = JsonValue::array();
    for (const double s : ledger.roots_s) roots.push_back(JsonValue(s));
    out.set("last_loss", JsonValue(last_loss));
    out.set("self_s", std::move(self));
    out.set("total_s", std::move(total));
    out.set("roots_s", std::move(roots));
    out.set("events", JsonValue(static_cast<double>(events)));
  }
  Tracer::instance().export_chrome_trace(trace_path);
  write_all(fd, out.dump());
  return 0;
}

double member(const JsonValue& object, std::string_view group,
              std::string_view key) {
  const JsonValue* g = object.find(group);
  const JsonValue* v = g == nullptr ? nullptr : g->find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

/// SimClock phase families (paper Fig. 14; a family is the phase and its
/// "<phase>/..." slices) and the measured layer each is set against in
/// sim.<phase>_over_wall.
struct SimPhase {
  const char* phase;
  const char* layer;
};
constexpr SimPhase kSimPhases[] = {
    {phases::kBottomMlp, "dlrm.bottom_mlp_ms"},
    {phases::kEmbLookup, "dlrm.emb_lookup_ms"},
    {phases::kAllToAllFwd, "core.a2a_fwd_ms"},
    {phases::kInteraction, "dlrm.interaction_ms"},
    {phases::kTopMlp, "dlrm.top_mlp_ms"},
    {phases::kAllToAllBwd, "core.a2a_bwd_ms"},
    {phases::kAllReduce, "comm.allreduce_ms"},
    {phases::kEmbUpdate, "dlrm.emb_update_ms"},
};

void traced_pass(const TrainWorkload& w, const RunOptions& options,
                 const BatchSource& data, std::size_t iterations,
                 RunOutput& out) {
  const double budget = remaining_s(options.deadline_ns);
  const StreamSource source(data, options.seed * kStreamStride);
  std::optional<AnalysisReport> analysis;
  if (*w.codec != '\0') analysis = analyze(data);

  // Untraced trainer first: the reference for the bitwise match and for
  // the tracing overhead.
  const TrainerRun trainer =
      launch_trainer(w, data, options.seed, iterations, budget / 2,
                     /*setup_only=*/false, analysis ? &*analysis : nullptr);
  out.attempted += iterations;
  if (!trainer.error.empty()) {
    out.failed += iterations;
    out.errors.push_back("trainer: " + trainer.error);
    return;
  }

  const std::string trace_dir = kTraceDir;
  std::filesystem::create_directories(trace_dir);
  const TrainerConfig config =
      make_config(w, iterations, analysis ? &*analysis : nullptr);
  const MeshOutcome mesh = run_mesh(
      config, remaining_s(options.deadline_ns),
      [&](int rank, const TrainerConfig& mine, int fd) {
        return harness_rank(rank, mine, fd, source,
                            trace_dir + "/" + w.name + ".rank" +
                                std::to_string(rank) + ".json");
      });
  out.attempted += iterations;
  if (!mesh.error.empty()) {
    out.failed += iterations;
    out.errors.push_back("harness: " + mesh.error);
    return;
  }

  std::vector<JsonValue> ranks;
  for (const ChildResult& c : mesh.ranks) ranks.push_back(json_parse(c.output));
  const JsonValue& r0 = ranks[0];
  double fwd_raw = 0, fwd_wire = 0, bwd_raw = 0, bwd_wire = 0;
  std::uint32_t crc = crc32_init();
  for (const JsonValue& r : ranks) {
    fwd_raw += num(r, "fwd_raw");
    fwd_wire += num(r, "fwd_wire");
    bwd_raw += num(r, "bwd_raw");
    bwd_wire += num(r, "bwd_wire");
    const auto word = static_cast<std::uint32_t>(num(r, "crc"));
    crc = crc32_update(crc, std::as_bytes(std::span<const std::uint32_t>(&word, 1)));
  }
  const JsonValue& ref = trainer.report;
  const bool matches = num(r0, "last_loss") == num(ref, "last_loss") &&
                       fwd_raw == num(ref, "fwd_raw") &&
                       fwd_wire == num(ref, "fwd_wire") &&
                       bwd_raw == num(ref, "bwd_raw") &&
                       bwd_wire == num(ref, "bwd_wire") &&
                       crc32_final(crc) == num(ref, "wire_crc32");

  std::vector<double> roots;
  for (const JsonValue& v : r0.find("roots_s")->items()) roots.push_back(v.as_number());
  const double n = static_cast<double>(roots.size());
  double root_sum = 0.0;
  for (const double s : roots) root_sum += s;
  const auto self = [&](std::initializer_list<const char*> names) {
    double s = 0.0;
    for (const char* name : names) s += member(r0, "self_s", name);
    return s / n * 1e3;
  };
  const auto total = [&](std::initializer_list<const char*> names) {
    double s = 0.0;
    for (const char* name : names) s += member(r0, "total_s", name);
    return s / n * 1e3;
  };
  auto& m = out.metrics;
  // Rank 0's iteration timings, from the untraced launch.
  double window_s = 0.0;  // the measured iterations back to back
  for (const double s : trainer.iter_s) window_s += s;
  m["p50_ms"] = percentile(trainer.iter_s, 50.0) * 1e3;
  m["tail_ms"] =
      percentile(trainer.iter_s, tail_percentile(trainer.iter_s.size())) * 1e3;
  m["throughput"] =
      static_cast<double>(kGlobalBatch * trainer.iter_s.size()) / window_s;
  m["data.make_batch_ms"] = self({"data/make_batch"});
  m["dlrm.emb_lookup_ms"] = self({"dlrm/emb_lookup"});
  m["dlrm.bottom_mlp_ms"] = self({"dlrm/bottom_fwd", "dlrm/bottom_bwd", "dlrm/bottom_sgd"});
  m["dlrm.interaction_ms"] = self({"dlrm/interaction_fwd", "dlrm/interaction_bwd"});
  m["dlrm.top_mlp_ms"] =
      self({"dlrm/top_fwd", "dlrm/loss", "dlrm/top_bwd", "dlrm/top_sgd"});
  m["dlrm.emb_update_ms"] = self({"dlrm/emb_update"});
  m["compress.compress_ms"] = self({"a2a/compress"});
  m["compress.decompress_ms"] = self({"a2a/decompress"});
  m["compress.fwd_ratio"] = num(ref, "fwd_raw") / num(ref, "fwd_wire");
  m["compress.bwd_ratio"] = num(ref, "bwd_raw") / num(ref, "bwd_wire");
  m["core.a2a_pack_ms"] = self({"a2a/pack_group"});
  m["core.a2a_land_ms"] = self({"a2a/land_group"});
  m["core.a2a_fwd_ms"] = total({"core/a2a_fwd_begin", "core/a2a_fwd_finish"});
  m["core.a2a_bwd_ms"] = total({"core/a2a_bwd"});
  m["comm.a2a_wire_ms"] =
      self({"core/a2a_fwd_begin", "core/a2a_fwd_finish", "core/a2a_bwd"});
  m["comm.allreduce_ms"] = self({"comm/allreduce_issue", "comm/allreduce_wait"});
  m["comm.barrier_ms"] = self({"comm/barrier"});

  const JsonValue& ledger = *ref.find("sim_seconds");
  for (const SimPhase& p : kSimPhases) {
    double sim_s = 0.0;
    for (const auto& [phase, seconds] : ledger.members()) {
      if (phase == p.phase || phase.rfind(std::string(p.phase) + "/", 0) == 0) {
        sim_s += seconds.as_number();
      }
    }
    const double wall_ms = m[p.layer];
    m[std::string("sim.") + p.phase + "_over_wall"] =
        wall_ms > 0.0 ? sim_s / static_cast<double>(iterations) * 1e3 / wall_ms
                      : 0.0;
  }

  const double harness_p50 = percentile(roots, 50.0);
  const double trainer_p50 = percentile(trainer.iter_s, 50.0);
  m["harness.iter_ms_p50"] = harness_p50 * 1e3;
  m["harness.unattributed_pct"] =
      100.0 * member(r0, "self_s", kIteration) / root_sum;
  m["harness.vs_e2e_pct"] = 100.0 * (harness_p50 - trainer_p50) / trainer_p50;
  m["harness.matches_e2e"] = matches ? 1.0 : 0.0;
  m["obs.trace_events_per_op"] =
      num(r0, "events") / static_cast<double>(iterations);
}

}  // namespace

bool is_train_workload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const TrainWorkload& w) { return name == w.name; });
}

RunOutput run_train_workload(const RunOptions& options) {
  const TrainWorkload& w = find_workload(options.workload);
  const SyntheticClickDataset data(workload_spec(), kDataSeed);
  const auto measured = std::max<std::size_t>(
      10, static_cast<std::size_t>(std::lround(options.seconds / w.nominal_iter_s)));
  // Warm-up, the measured iterations, and a last one that closes the
  // final measured interval.
  const std::size_t iterations = kWarmup + measured + 1;

  RunOutput out;
  if (options.trace) {
    traced_pass(w, options, data, iterations, out);
    return out;
  }

  // Set-up probes: the same launch, ended at rank 0's first batch.
  std::vector<double> setups;
  for (std::size_t i = 0; i + 1 < kSetups; ++i) {
    const TrainerRun probe =
        launch_trainer(w, data, options.seed, iterations,
                       std::min(60.0, remaining_s(options.deadline_ns)),
                       /*setup_only=*/true);
    out.attempted += 1;
    if (!probe.error.empty()) {
      out.failed += 1;
      out.errors.push_back("set-up probe: " + probe.error);
      continue;
    }
    setups.push_back(probe.setup_s);
  }

  const double expected_s = static_cast<double>(iterations) * w.nominal_iter_s;
  const TrainerRun run = launch_trainer(
      w, data, options.seed, iterations,
      std::min(30.0 + 4.0 * expected_s, remaining_s(options.deadline_ns)));
  out.attempted += iterations;
  if (!run.error.empty()) {
    out.failed += iterations;
    out.errors.push_back("trainer: " + run.error);
    return out;
  }
  setups.push_back(run.setup_s);

  const double eval_loss = num(run.report, "eval_loss");
  if (!std::isfinite(eval_loss)) {
    out.failed += iterations;
    out.errors.push_back("eval logloss is not finite");
  }
  auto& m = out.metrics;
  m["setup_s"] = percentile(setups, 50.0);
  m["payload_MB"] =
      num(run.report, "wire_bytes_sent") / static_cast<double>(iterations) / 1e6;
  m["logloss"] = eval_loss;
  return out;
}

}  // namespace e2e
