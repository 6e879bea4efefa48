#include "core/trainer.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "ckpt/checkpoint.hpp"
#include "comm/tcp_runtime.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/latency_recorder.hpp"
#include "common/timer.hpp"
#include "compress/registry.hpp"
#include "dlrm/interaction.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace dlcomp {

namespace {

/// Per-rank mutable state living for the whole training run.
struct RankState {
  Mlp* bottom = nullptr;
  Mlp* top = nullptr;
  std::vector<std::size_t> owned_tables;
  // Flat gradient buffer reused across iterations for the MLP all-reduce.
  std::vector<float> grad_scratch;
};

/// Flattens MLP gradients into state.grad_scratch (the all-reduce send
/// buffer, reused across iterations).
void pack_mlp_grads(RankState& state) {
  auto views_b = state.bottom->grad_views();
  auto views_t = state.top->grad_views();
  std::size_t total = 0;
  for (const auto& v : views_b) total += v.size();
  for (const auto& v : views_t) total += v.size();
  state.grad_scratch.resize(total);

  std::size_t cursor = 0;
  auto pack = [&](std::span<float> v) {
    std::copy(v.begin(), v.end(), state.grad_scratch.begin() + cursor);
    cursor += v.size();
  };
  for (auto& v : views_b) pack(v);
  for (auto& v : views_t) pack(v);
}

/// Writes the reduced gradients back into the MLPs, averaged by world.
void unpack_mlp_grads(RankState& state, int world) {
  auto views_b = state.bottom->grad_views();
  auto views_t = state.top->grad_views();
  const float inv_world = 1.0f / static_cast<float>(world);
  std::size_t cursor = 0;
  auto unpack = [&](std::span<float> v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = state.grad_scratch[cursor + i] * inv_world;
    }
    cursor += v.size();
  };
  for (auto& v : views_b) unpack(v);
  for (auto& v : views_t) unpack(v);
}

/// Serial pack + all-reduce + unpack (the non-overlapped schedule).
void allreduce_mlp_grads(Communicator& comm, RankState& state) {
  pack_mlp_grads(state);
  comm.all_reduce_sum(state.grad_scratch, phases::kAllReduce);
  unpack_mlp_grads(state, comm.world());
}

/// A phase counts as communication if it belongs to one of the collective
/// families and is not a codec slice (compress/decompress are compute).
bool is_comm_phase(const std::string& phase) {
  const bool comm_family = phase.rfind(phases::kAllToAllFwd, 0) == 0 ||
                           phase.rfind(phases::kAllToAllBwd, 0) == 0 ||
                           phase.rfind(phases::kAllReduce, 0) == 0;
  return comm_family && phase.find("/compress") == std::string::npos &&
         phase.find("/decompress") == std::string::npos;
}

/// Owner-broadcast of every embedding table's weights over the *raw*
/// transport. A no-op on shared-memory backends (rank 0 reads owner
/// copies directly); under TCP each process holds zero-initialised (or,
/// after an earlier sync, stale) copies of the tables it does not own,
/// so rank 0's held-out eval needs the owners' current rows first. Raw
/// transport exchanges charge no simulated time, so eval cadence does
/// not perturb the simulated numbers.
void sync_tables_for_eval(Communicator& comm,
                          std::span<EmbeddingTable> tables) {
  Transport& transport = comm.transport();
  if (transport.shared_memory()) return;
  const auto world = static_cast<std::size_t>(transport.world());
  const auto me = static_cast<std::size_t>(transport.rank());
  std::vector<std::vector<std::byte>> controls;
  std::vector<std::vector<std::byte>> recv;
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const std::size_t owner = t % world;
    const std::span<float> weights = tables[t].weights().flat();
    std::vector<std::span<const std::byte>> sends(world);
    if (me == owner) {
      const auto payload = std::as_bytes(std::span<const float>(weights));
      std::fill(sends.begin(), sends.end(), payload);
    }
    transport.exchange({}, sends, controls, recv);
    if (me != owner) {
      DLCOMP_CHECK_MSG(recv[owner].size() == weights.size_bytes(),
                       "eval table sync: owner rank "
                           << owner << " sent " << recv[owner].size()
                           << " bytes for table " << t << ", expected "
                           << weights.size_bytes());
      std::memcpy(weights.data(), recv[owner].data(), weights.size_bytes());
    }
  }
}

// ---- End-of-run result aggregation: each rank's additive totals reach
// rank 0 as one MetricsSnapshot, sent as a flat JSON object under the
// manifest's key names. Under TCP the documents come from other
// processes, so rank 0 validates each one before folding it.

/// Rank totals that land in a TrainingResult field after the merge.
constexpr std::pair<const char*, std::uint64_t TrainingResult::*>
    kResultTotals[] = {
        {"train/forward_raw_bytes", &TrainingResult::forward_raw_bytes},
        {"train/forward_wire_bytes", &TrainingResult::forward_wire_bytes},
        {"train/backward_raw_bytes", &TrainingResult::backward_raw_bytes},
        {"train/backward_wire_bytes", &TrainingResult::backward_wire_bytes},
        {"train/steady_grow_events",
         &TrainingResult::steady_state_grow_events},
        {"comm/wire_bytes_sent_total", &TrainingResult::wire_bytes_sent},
};
constexpr std::pair<const char*, std::uint64_t CommStats::*> kCommTotals[] = {
    {"comm/alltoall_total", &CommStats::alltoall_count},
    {"comm/alltoall_wire_bytes_total", &CommStats::alltoall_wire_bytes},
    {"comm/allreduce_total", &CommStats::allreduce_count},
    {"comm/allreduce_wire_bytes_total", &CommStats::allreduce_wire_bytes},
    {"comm/barrier_total", &CommStats::barrier_count},
};
constexpr const char* kWireCrcKey = "train/wire_crc32";
constexpr std::string_view kSimPrefix = "sim/";

constexpr double kMaxExactCount = 9007199254740992.0;  // 2^53

/// `value` as an unsigned integer no larger than `max`; throws for what
/// no rank's accounting can produce (negative, fractional, too large).
std::uint64_t to_count(double value, double max, std::string_view key) {
  DLCOMP_CHECK_MSG(value >= 0.0 && value <= max && value == std::floor(value),
                   "result aggregation: " << key << " = " << value
                                          << " is not a count");
  return static_cast<std::uint64_t>(value);
}

/// Writes one rank's additive totals: the kResultTotals and kCommTotals
/// fields and its final wire CRC.
void write_totals(const TrainingResult& totals, MetricsSnapshot& snap) {
  for (const auto& [key, field] : kResultTotals) {
    snap.set(key, static_cast<double>(totals.*field));
  }
  for (const auto& [key, field] : kCommTotals) {
    snap.set(key, static_cast<double>(totals.comm_stats.*field));
  }
  snap.set(kWireCrcKey, totals.wire_crc32);
}

/// Reads the same fields back from the merged snapshot, plus the phase
/// maps, which are the slowest rank's sim/ ledgers as
/// SimClock::export_to wrote them.
void read_totals(const MetricsSnapshot& merged, TrainingResult& result) {
  for (const auto& [key, field] : kResultTotals) {
    result.*field = to_count(merged.value(key), kMaxExactCount, key);
  }
  for (const auto& [key, field] : kCommTotals) {
    result.comm_stats.*field = to_count(merged.value(key), kMaxExactCount, key);
  }
  result.wire_crc32 = static_cast<std::uint32_t>(merged.value(kWireCrcKey));
  constexpr std::string_view kHidden = "hidden/";
  for (const auto& [key, seconds] : merged.values) {
    if (!key.starts_with(kSimPrefix)) continue;
    std::string phase = key.substr(kSimPrefix.size());
    if (phase == "makespan") {
      result.makespan_seconds = seconds;
    } else if (phase.starts_with(kHidden)) {
      result.hidden_phase_seconds.emplace(phase.substr(kHidden.size()),
                                          seconds);
    } else {
      result.phase_seconds.emplace(std::move(phase), seconds);
    }
  }
}

/// Sets "<x>_cr" = raw / wire (1 when nothing went on the wire) for every
/// "<x>_raw_bytes" / "<x>_wire_bytes" pair: the run's forward and
/// backward ratios and every table's.
void set_compression_ratios(MetricsSnapshot& snap) {
  constexpr std::string_view kRaw = "_raw_bytes";
  std::vector<std::pair<std::string, double>> ratios;
  for (const auto& [key, raw] : snap.values) {
    if (!key.ends_with(kRaw)) continue;
    const std::string base = key.substr(0, key.size() - kRaw.size());
    const double wire = snap.value(base + "_wire_bytes");
    ratios.emplace_back(base + "_cr", wire == 0.0 ? 1.0 : raw / wire);
  }
  for (auto& [key, ratio] : ratios) snap.set(std::move(key), ratio);
}

}  // namespace

namespace detail {

MetricsSnapshot parse_rank_totals(std::span<const std::byte> bytes,
                                  std::size_t rank) {
  const auto fail = [rank](const std::string& why) {
    return Error("result aggregation: rank " + std::to_string(rank) +
                 " sent bad totals: " + why);
  };
  JsonValue doc;
  try {
    doc = json_parse(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  } catch (const Error& e) {
    throw fail(e.what());
  }
  if (!doc.is_object()) throw fail("not a JSON object");
  MetricsSnapshot snap;
  for (const auto& [key, value] : doc.members()) {
    if (!value.is_number() || !std::isfinite(value.as_number())) {
      throw fail("'" + key + "' is not a finite number");
    }
    if (!snap.values.emplace(key, value.as_number()).second) {
      throw fail("'" + key + "' appears twice");
    }
  }
  return snap;
}

MetricsSnapshot merge_rank_totals(const std::vector<MetricsSnapshot>& ranks) {
  DLCOMP_CHECK(!ranks.empty());
  MetricsSnapshot merged;
  std::uint32_t crc = crc32_init();
  std::size_t slowest = 0;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    for (const auto& [key, value] : ranks[r].values) {
      if (key.starts_with(kSimPrefix)) continue;
      if (key == kWireCrcKey) {
        const auto word =
            static_cast<std::uint32_t>(to_count(value, 0xFFFFFFFFu, key));
        crc = crc32_update(
            crc, std::as_bytes(std::span<const std::uint32_t>(&word, 1)));
      } else {
        merged.values[key] += value;
      }
    }
    if (ranks[r].value("sim/makespan") > ranks[slowest].value("sim/makespan")) {
      slowest = r;
    }
  }
  merged.set(kWireCrcKey, crc32_final(crc));
  for (const auto& [key, value] : ranks[slowest].values) {
    if (key.starts_with(kSimPrefix)) merged.set(key, value);
  }
  return merged;
}

}  // namespace detail

double TrainingResult::exposed_comm_seconds() const {
  double total = 0.0;
  for (const auto& [phase, seconds] : phase_seconds) {
    if (is_comm_phase(phase)) total += seconds;
  }
  return total;
}

double TrainingResult::hidden_comm_seconds() const {
  double total = 0.0;
  for (const auto& [phase, seconds] : hidden_phase_seconds) {
    if (is_comm_phase(phase)) total += seconds;
  }
  return total;
}

HybridParallelTrainer::HybridParallelTrainer(TrainerConfig config)
    : config_(std::move(config)) {
  DLCOMP_CHECK(config_.world >= 1);
  DLCOMP_CHECK(config_.iterations >= 1);
  DLCOMP_CHECK_MSG(
      config_.transport.backend == "sim" || config_.transport.backend == "tcp",
      "unknown transport backend '" << config_.transport.backend
                                    << "' (expected \"sim\" or \"tcp\")");
  // Every run ends with a held-out eval (a mean over eval_batches).
  DLCOMP_CHECK_MSG(config_.eval_batches > 0, "eval_batches must be >= 1");
}

TrainingResult HybridParallelTrainer::train(const BatchSource& dataset) {
  const DatasetSpec& spec = dataset.spec();
  const std::size_t global_batch =
      config_.global_batch > 0 ? config_.global_batch : spec.default_batch;
  const auto world = static_cast<std::size_t>(config_.world);
  DLCOMP_CHECK_MSG(global_batch % world == 0,
                   "global batch " << global_batch
                                   << " must divide by world " << world);
  const std::size_t local_batch = global_batch / world;
  const std::size_t dim = spec.embedding_dim;
  const std::size_t num_tables = spec.num_tables();

  const Compressor* codec = config_.compression.codec.empty()
                                ? nullptr
                                : &get_compressor(config_.compression.codec);
  const ErrorBoundScheduler scheduler(config_.compression.scheduler);

  // Per-table base error bounds.
  std::vector<double> table_eb = config_.compression.table_eb;
  if (table_eb.empty()) {
    table_eb.assign(num_tables, config_.compression.global_eb);
  }
  DLCOMP_CHECK(table_eb.size() == num_tables);
  std::vector<HybridChoice> table_choice = config_.compression.table_choice;
  if (table_choice.empty()) {
    table_choice.assign(num_tables, HybridChoice::kAuto);
  }

  // The model is the shared training state: its tables and per-table
  // optimizers (owner-rank writes only) and rank 0's MLPs. Under the sim
  // backend all rank threads share it, so every table is drawn. Under TCP
  // each process draws only the tables it owns; its copies of the others
  // stay zero until sync_tables_for_eval overwrites them, which happens
  // before anything reads them (mid-run and final evals; resume
  // overwrites every table).
  const bool tcp = config_.transport.backend == "tcp";
  DlrmModel model(spec, config_.model, config_.seed,
                  tcp ? static_cast<std::size_t>(config_.transport.rank) : 0,
                  tcp ? world : 1);
  // Draw the tables now, as set-up: left lazy, the draw would land in the
  // first iteration's lookups.
  const std::span<EmbeddingTable> tables = model.tables();
  ThreadPool codec_pool(std::min<unsigned>(4, std::thread::hardware_concurrency()));

  const auto bdims = bottom_dims(spec, config_.model);
  const auto tdims = top_dims(spec, config_.model);

  // ---- Resume: restore tables, optimizer state, MLPs and the iteration
  // counter before the cluster starts. Under TCP every process loads the
  // same file, so the restored state is identical everywhere.
  std::size_t start_iter = 0;
  if (!config_.checkpoint.resume_from.empty()) {
    const LoadedCheckpoint loaded =
        CheckpointReader(&codec_pool).load(config_.checkpoint.resume_from);
    DLCOMP_CHECK_MSG(
        loaded.opt_kind == config_.model.embedding_optimizer,
        "checkpoint optimizer kind does not match the trainer config");
    apply_model_state(loaded, make_model_state(model));
    start_iter = static_cast<std::size_t>(loaded.header.iteration);
    DLCOMP_LOG_INFO("train", "resumed from checkpoint",
                    {"path", config_.checkpoint.resume_from},
                    {"iteration", start_iter});
    DLCOMP_CHECK_MSG(start_iter <= config_.iterations,
                     "checkpoint is at iteration "
                         << start_iter << ", config trains only "
                         << config_.iterations);
  }

  // One MLP replica pair per rank this process runs. The first (rank 0
  // under sim) trains the model's own MLPs, which eval and save read;
  // every other rank trains a copy of the initial (or restored) ones,
  // taken here before any rank thread starts.
  const std::size_t local_ranks = tcp ? 1 : world;
  std::vector<Mlp> bottom_copies(local_ranks - 1, model.bottom_mlp());
  std::vector<Mlp> top_copies(local_ranks - 1, model.top_mlp());

  // ---- Periodic snapshotting (rank 0, inside a cluster barrier).
  std::unique_ptr<CheckpointWriter> ckpt_writer;
  if (!config_.checkpoint.directory.empty()) {
    std::filesystem::create_directories(config_.checkpoint.directory);
    CheckpointOptions options;
    options.codec = config_.checkpoint.codec;
    options.table_eb = config_.checkpoint.table_eb;
    options.global_eb = config_.checkpoint.global_eb;
    options.pool = &codec_pool;
    ckpt_writer = std::make_unique<CheckpointWriter>(std::move(options));
  }

  TrainingResult result;
  result.start_iteration = start_iter;

  // Rank 0's per-iteration wall times.
  LatencyRecorder iter_wall;

  // Rank 0's held-out eval: the model's MLPs (rank 0's replicas) over
  // its tables, which sync_tables_for_eval makes owner-current first.
  const auto evaluate = [&] {
    return model.evaluate_stream(dataset,
                                 std::min<std::size_t>(global_batch, 512),
                                 config_.eval_batches);
  };

  WallTimer wall;
  const auto rank_body = [&](Communicator& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());

    // --- Per-rank setup: this rank's MLP replicas and the table
    // ownership map; the model's per-table optimizers are touched only by
    // owners.
    RankState state;
    const std::size_t local = tcp ? 0 : rank;
    state.bottom = local == 0 ? &model.bottom_mlp() : &bottom_copies[local - 1];
    state.top = local == 0 ? &model.top_mlp() : &top_copies[local - 1];
    for (std::size_t t = rank; t < num_tables; t += world) {
      state.owned_tables.push_back(t);
    }
    // Ownership map for every rank (to size receives).
    std::vector<std::vector<std::size_t>> owned_by(world);
    for (std::size_t t = 0; t < num_tables; ++t) {
      owned_by[t % world].push_back(t);
    }

    // Snapshots need rank 0 to read every table and optimizer replica
    // directly; only a shared-memory backend can provide that, so TCP
    // runs skip saving (resume still works -- see above).
    const bool can_save =
        ckpt_writer != nullptr && comm.transport().shared_memory();
    if (rank == 0 && ckpt_writer != nullptr && !can_save) {
      DLCOMP_LOG_INFO("train", "checkpoint saving disabled on this backend",
                      {"directory", config_.checkpoint.directory});
    }

    CompressedAllToAllConfig a2a_config;
    a2a_config.codec = codec;
    a2a_config.pool = &codec_pool;
    a2a_config.device = config_.device;
    a2a_config.pipeline_stages =
        std::max<std::size_t>(1, config_.overlap.pipeline_stages);
    const CompressedAllToAll a2a(a2a_config);

    std::uint64_t grow_baseline = 0;

    // This rank's additive totals (folded on rank 0 at the end) and the
    // running CRC over every wire stream this rank produced: per-exchange
    // CRC words in issue order.
    TrainingResult totals;
    std::uint32_t rank_crc = crc32_init();
    const auto crc_fold = [&rank_crc](std::uint32_t word) {
      rank_crc = crc32_update(
          rank_crc, std::as_bytes(std::span<const std::uint32_t>(&word, 1)));
    };

    // Reused buffers.
    std::vector<Matrix> owned_lookup(num_tables);   // B_glob x dim (owned only)
    std::vector<Matrix> local_lookup(num_tables);   // B_loc x dim (all tables)
    std::vector<Matrix> demb(num_tables);           // B_loc x dim
    std::vector<Matrix> grad_assembled(num_tables); // B_glob x dim (owned only)
    Matrix local_dense(local_batch, spec.num_dense);
    std::vector<float> local_labels(local_batch);

    for (std::size_t iter = start_iter; iter < config_.iterations; ++iter) {
      DLCOMP_TRACE_SPAN("train/iteration");
      WallTimer iter_timer;
      const double eb_scale = scheduler.scale_at(iter);

      // Every rank regenerates the same global batch deterministically.
      const SampleBatch batch = dataset.make_batch(global_batch, iter);
      const std::size_t row0 = rank * local_batch;
      for (std::size_t b = 0; b < local_batch; ++b) {
        for (std::size_t f = 0; f < spec.num_dense; ++f) {
          local_dense(b, f) = batch.dense(row0 + b, f);
        }
        local_labels[b] = batch.labels[row0 + b];
      }

      // ---- Forward: bottom MLP on the local dense slice. With forward
      // overlap it instead runs while the forward all-to-all is in flight
      // (the two are data-independent); the math is identical either way.
      const Matrix* z0 = nullptr;
      if (!config_.overlap.forward) {
        z0 = &state.bottom->forward(local_dense);
        comm.advance_compute(phases::kBottomMlp,
                             config_.compute.mlp_seconds(local_batch, bdims));
      }

      // ---- Forward: owned-table lookups over the *global* batch.
      std::size_t lookup_bytes = 0;
      for (const std::size_t t : state.owned_tables) {
        owned_lookup[t].resize(global_batch, dim);
        tables[t].lookup(batch.indices[t], owned_lookup[t]);
        lookup_bytes += owned_lookup[t].size() * sizeof(float);
      }
      comm.advance_compute(phases::kEmbLookup,
                           config_.compute.memory_bound_seconds(lookup_bytes));

      // ---- Forward all-to-all: owned lookups scatter to every rank.
      std::vector<std::vector<A2AChunkSpec>> send_fwd(world);
      for (std::size_t d = 0; d < world; ++d) {
        for (const std::size_t t : state.owned_tables) {
          A2AChunkSpec chunk;
          chunk.data = std::span<const float>(
              owned_lookup[t].data() + d * local_batch * dim,
              local_batch * dim);
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
      A2AStats fwd_stats;
      DLCOMP_TRACE_INSTANT("train/forward_exchange");
      if (config_.overlap.forward) {
        // Issue the exchange, run the bottom MLP "under" the wire, then
        // land the final payload group.
        auto pending_fwd =
            a2a.exchange_begin(comm, send_fwd, recv_fwd, phases::kAllToAllFwd);
        z0 = &state.bottom->forward(local_dense);
        comm.advance_compute(phases::kBottomMlp,
                             config_.compute.mlp_seconds(local_batch, bdims));
        fwd_stats = pending_fwd.finish();
      } else {
        fwd_stats = a2a.exchange(comm, send_fwd, recv_fwd, phases::kAllToAllFwd);
      }
      totals.forward_raw_bytes += fwd_stats.send_raw_bytes;
      totals.forward_wire_bytes += fwd_stats.send_wire_bytes;
      crc_fold(fwd_stats.wire_crc32);

      // ---- Forward: interaction + top MLP + loss on the local slice.
      Matrix feat(local_batch, DotInteraction::output_dim(num_tables, dim));
      DotInteraction::forward(*z0, local_lookup, feat);
      comm.advance_compute(
          phases::kInteraction,
          config_.compute.interaction_seconds(local_batch, num_tables, dim));

      const Matrix& logits = state.top->forward(feat);
      comm.advance_compute(phases::kTopMlp,
                           config_.compute.mlp_seconds(local_batch, tdims));

      Matrix dlogits(local_batch, 1);
      const LossResult loss =
          bce_with_logits(logits.flat(), local_labels, dlogits.flat());

      // ---- Backward: top MLP, interaction.
      const Matrix dfeat = state.top->backward(dlogits);
      comm.advance_compute(
          phases::kTopMlp, 2.0 * config_.compute.mlp_seconds(local_batch, tdims));

      Matrix dz0(local_batch, dim);
      for (std::size_t t = 0; t < num_tables; ++t) {
        demb[t].resize(local_batch, dim);
      }
      DotInteraction::backward(*z0, local_lookup, dfeat, dz0,
                               std::span<Matrix>(demb));
      comm.advance_compute(
          phases::kInteraction,
          2.0 * config_.compute.interaction_seconds(local_batch, num_tables, dim));

      // ---- Backward all-to-all: gradients return to table owners.
      std::vector<std::vector<A2AChunkSpec>> send_bwd(world);
      for (std::size_t d = 0; d < world; ++d) {
        for (const std::size_t t : owned_by[d]) {
          A2AChunkSpec chunk;
          chunk.data = demb[t].flat();
          chunk.params.error_bound = config_.compression.backward_relative_eb;
          chunk.params.eb_mode = EbMode::kRangeRelative;
          chunk.params.vector_dim = dim;
          chunk.params.hybrid_choice = table_choice[t];
          // Backward tags live in [num_tables, 2*num_tables): when the
          // backward path is compressed it shares the forward exchange
          // object, so the directions must not share accumulator slots.
          chunk.tag = static_cast<std::uint32_t>(num_tables + t);
          send_bwd[d].push_back(chunk);
        }
      }
      std::vector<std::vector<std::span<float>>> recv_bwd(world);
      for (const std::size_t t : state.owned_tables) {
        grad_assembled[t].resize(global_batch, dim);
      }
      for (std::size_t s = 0; s < world; ++s) {
        for (const std::size_t t : state.owned_tables) {
          recv_bwd[s].push_back(std::span<float>(
              grad_assembled[t].data() + s * local_batch * dim,
              local_batch * dim));
        }
      }
      // ---- Backward all-to-all + bottom MLP + embedding update + MLP
      // gradient all-reduce. The serial schedule runs them in that order;
      // with backward overlap the bottom-MLP backward runs first (so
      // every MLP gradient exists), the all-reduce goes on the wire
      // nonblocking (NVLink-class link in the network model, disjoint
      // from the all-to-all fabric), and the gradient all-to-all plus the
      // embedding update run under it. Identical float operations on
      // identical inputs either way.
      const auto run_bwd_exchange = [&] {
        const A2AStats bwd_stats =
            a2a.exchange(comm, send_bwd, recv_bwd, phases::kAllToAllBwd);
        totals.backward_raw_bytes += bwd_stats.send_raw_bytes;
        totals.backward_wire_bytes += bwd_stats.send_wire_bytes;
        crc_fold(bwd_stats.wire_crc32);
      };
      const auto run_bottom_backward = [&] {
        (void)state.bottom->backward(dz0);
        comm.advance_compute(
            phases::kBottomMlp,
            2.0 * config_.compute.mlp_seconds(local_batch, bdims));
      };
      const auto run_emb_update = [&] {
        // Embedding updates are global-batch means: scale by 1/world,
        // see header.
        std::size_t update_bytes = 0;
        const float lr_scale = 1.0f / static_cast<float>(world);
        for (const std::size_t t : state.owned_tables) {
          model.optimizer(t).apply(tables[t], batch.indices[t],
                                   grad_assembled[t], lr_scale);
          update_bytes += grad_assembled[t].size() * sizeof(float);
        }
        comm.advance_compute(phases::kEmbUpdate,
                             config_.compute.memory_bound_seconds(update_bytes));
      };

      DLCOMP_TRACE_INSTANT("train/backward_exchange");
      if (config_.overlap.backward) {
        run_bottom_backward();
        pack_mlp_grads(state);
        PendingCollective pending_ar =
            comm.all_reduce_sum_async(state.grad_scratch, phases::kAllReduce);
        run_bwd_exchange();
        run_emb_update();
        pending_ar.wait();
        unpack_mlp_grads(state, comm.world());
      } else {
        run_bwd_exchange();
        run_bottom_backward();
        run_emb_update();
        allreduce_mlp_grads(comm, state);
      }
      state.bottom->sgd_step(config_.model.learning_rate);
      state.top->sgd_step(config_.model.learning_rate);

      // Steady-state allocation accounting: the first two iterations are
      // warm-up (buffers and workspaces reach their high-water marks);
      // growth after that is a regression the tests assert against.
      if (iter < start_iter + 2) grow_baseline = a2a.workspace_grow_events();

      if (rank == 0) iter_wall.record(iter_timer.seconds());

      // ---- Bookkeeping (rank 0 records/saves; all ranks barrier so the
      // snapshot is a consistent cut of tables and optimizer state).
      const bool record =
          config_.record_every == 0 || iter % std::max<std::size_t>(config_.record_every, 1) == 0 ||
          iter + 1 == config_.iterations;
      const bool eval_now =
          config_.eval_every > 0 && (iter + 1) % config_.eval_every == 0;
      const bool save_now =
          can_save &&
          ((config_.checkpoint.every > 0 &&
            (iter + 1) % config_.checkpoint.every == 0) ||
           iter + 1 == config_.iterations);
      if (record || eval_now || save_now) {
        comm.barrier();  // quiesce table writes before rank 0 reads them
        if (eval_now) sync_tables_for_eval(comm, tables);
        if (rank == 0) {
          if (record || eval_now) {
            IterationRecord rec;
            rec.iter = iter;
            rec.train_loss = loss.loss;
            rec.train_accuracy = loss.accuracy;
            rec.forward_cr = fwd_stats.compression_ratio();
            rec.eb_scale = eb_scale;
            if (eval_now) rec.eval_accuracy = evaluate().accuracy;
            result.history.push_back(rec);
          }
          if (save_now) {
            char name[32];
            std::snprintf(name, sizeof(name), "ckpt_%06llu.dlck",
                          static_cast<unsigned long long>(iter + 1));
            const std::string path =
                (std::filesystem::path(config_.checkpoint.directory) / name)
                    .string();
            result.checkpoints_written.push_back(ckpt_writer->save(
                path, make_model_state(model, iter + 1, config_.seed),
                config_.checkpoint.full_every));
            DLCOMP_LOG_INFO("train", "checkpoint saved",
                            {"path", result.checkpoints_written.back()},
                            {"iteration", iter + 1});
          }
        }
        comm.barrier();  // others wait for rank 0's eval/save before mutating
      }
    }

    // Final held-out evaluation.
    comm.barrier();
    sync_tables_for_eval(comm, tables);
    if (rank == 0) result.final_eval = evaluate();
    comm.barrier();

    // ---- Cross-rank result aggregation over the raw transport. Raw
    // exchanges charge no simulated time, so shipping the totals leaves
    // every simulated number untouched -- and running the same code under
    // both backends keeps the aggregation path itself backend-identical.
    totals.steady_state_grow_events =
        a2a.workspace_grow_events() - grow_baseline;
    totals.wire_bytes_sent = comm.wire_bytes_sent();
    totals.comm_stats = comm.comm_stats();
    totals.wire_crc32 = crc32_final(rank_crc);
    MetricsSnapshot mine;
    write_totals(totals, mine);
    // Forward chunks are tagged [0, num_tables), backward ones
    // [num_tables, 2*num_tables).
    const std::vector<CompressedAllToAll::TagBytes> tags = a2a.per_tag_bytes();
    for (std::size_t t = 0; t < num_tables; ++t) {
      const std::string base = "train/table/" + std::to_string(t) + "/";
      for (const auto& [dir, tag] :
           {std::pair{"fwd", t}, std::pair{"bwd", num_tables + t}}) {
        const CompressedAllToAll::TagBytes bytes =
            tag < tags.size() ? tags[tag] : CompressedAllToAll::TagBytes{};
        mine.set(base + dir + "_raw_bytes", static_cast<double>(bytes.raw));
        mine.set(base + dir + "_wire_bytes", static_cast<double>(bytes.wire));
      }
    }
    comm.clock().export_to(mine, kSimPrefix);

    JsonValue doc = JsonValue::object();
    for (const auto& [key, value] : mine.values) doc.set(key, JsonValue(value));
    const std::string text = doc.dump();
    std::vector<std::span<const std::byte>> to_all(
        world, std::as_bytes(std::span<const char>(text)));
    std::vector<std::vector<std::byte>> agg_controls;
    std::vector<std::vector<std::byte>> agg_recv;
    comm.transport().exchange({}, to_all, agg_controls, agg_recv);
    if (rank == 0) {
      std::vector<MetricsSnapshot> ranks;
      ranks.reserve(world);
      for (std::size_t r = 0; r < world; ++r) {
        ranks.push_back(detail::parse_rank_totals(agg_recv[r], r));
      }
      result.metrics = detail::merge_rank_totals(ranks);
    }
  };

  if (tcp) {
    TcpTransportConfig tcfg;
    tcfg.world = config_.world;
    tcfg.rank = config_.transport.rank;
    tcfg.address = config_.transport.address;
    tcfg.port = config_.transport.port;
    tcfg.inherited_listen_fd = config_.transport.inherited_listen_fd;
    tcfg.connect_timeout_s = config_.transport.connect_timeout_s;
    TcpRuntime runtime(tcfg, config_.network);
    trace_bind_thread_rank(runtime.transport().rank());
    rank_body(runtime.comm());
  } else {
    Cluster cluster(config_.world, config_.network);
    cluster.run(rank_body);
  }

  result.wall_seconds = wall.seconds();

  // ---- Metrics snapshot: the merged rank totals plus the run-level keys,
  // and every aggregated result field read back from it.
  MetricsSnapshot& snap = result.metrics;
  read_totals(snap, result);
  snap.set("train/iterations",
           static_cast<double>(config_.iterations - start_iter));
  snap.set("train/world", static_cast<double>(config_.world));
  set_compression_ratios(snap);
  snap.set("train/wall_seconds", result.wall_seconds);
  // Set after read_totals so they are never taken for phases.
  snap.set("sim/exposed_comm_seconds", result.exposed_comm_seconds());
  snap.set("sim/hidden_comm_seconds", result.hidden_comm_seconds());
  if (!result.history.empty()) {
    snap.set("train/final_loss", result.history.back().train_loss);
    snap.set("train/final_accuracy", result.history.back().train_accuracy);
  }
  snap.set("train/eval_loss", result.final_eval.loss);
  snap.set("train/eval_accuracy", result.final_eval.accuracy);
  iter_wall.snapshot_to(snap, "train/iter_wall_s");
  return result;
}

}  // namespace dlcomp
