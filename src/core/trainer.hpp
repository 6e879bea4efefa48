#pragma once

/// \file trainer.hpp
/// Hybrid-parallel DLRM trainer with compressed all-to-all -- the paper's
/// full training pipeline on the simulated cluster:
///   - embedding tables are model-parallel (table t lives on rank
///     t % world; ranks without tables still participate, as happens when
///     world > 26),
///   - MLPs are data-parallel (replicated; gradients all-reduced),
///   - forward lookups travel dest-ward through a compressed all-to-all,
///     gradients travel back through a symmetric one,
///   - per-table error bounds come from the offline analysis and decay
///     iteration-wise through the scheduler (the dual-level strategy).
///
/// Math note: with compression disabled the distributed run is equivalent
/// (up to float summation order) to single-process training on the global
/// batch -- gradients are rescaled by 1/world so both MLP and embedding
/// updates are global-batch means. The integration tests verify this.

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "comm/network_model.hpp"
#include "core/compressed_alltoall.hpp"
#include "core/compute_model.hpp"
#include "core/eb_scheduler.hpp"
#include "data/batch_source.hpp"
#include "dlrm/loss.hpp"
#include "dlrm/model.hpp"
#include "obs/metrics.hpp"

namespace dlcomp {

/// What to compress and how hard.
struct CompressionPolicy {
  /// Registry codec name; empty string disables compression entirely.
  std::string codec;

  /// Per-table base absolute error bounds (forward lookups). Empty means
  /// every table uses `global_eb`. Typically filled from
  /// AnalysisReport::table_error_bounds().
  std::vector<double> table_eb;
  double global_eb = 0.02;

  /// Per-table hybrid codec choices (only meaningful for codec="hybrid").
  /// Empty means kAuto. Typically AnalysisReport::table_choices().
  std::vector<HybridChoice> table_choice;

  /// Iteration-wise decay of the forward error bounds.
  SchedulerConfig scheduler{.func = DecayFunc::kNone};

  /// Bound of the backward (gradient) all-to-all, which the codec always
  /// compresses too. Gradient bounds are range-relative (see DESIGN.md):
  /// eb = backward_relative_eb * range.
  double backward_relative_eb = 0.01;
};

/// Overlap/pipelining of communication with compute — the system-side
/// companion to the compression (hidden wire time never reaches the
/// iteration's critical path). All flags preserve the training math
/// bitwise: only the schedule and the simulated-clock attribution change.
/// Defaults are fully serial.
struct OverlapPolicy {
  /// Run the bottom-MLP forward while the forward all-to-all is in
  /// flight (the lookup exchange does not depend on the dense path).
  bool forward = false;
  /// Issue the MLP-gradient all-reduce (NVLink-class link in the network
  /// model) before the backward all-to-all + embedding update, waiting
  /// only after both.
  bool backward = false;
  /// Chunk groups per destination inside each compressed all-to-all:
  /// group k+1 compresses while group k's payload is on the wire
  /// (CompressedAllToAllConfig::pipeline_stages). 1 = monolithic.
  std::size_t pipeline_stages = 1;
};

/// Periodic snapshotting and resume (see src/ckpt/). Saving happens on
/// rank 0 inside a cluster-wide barrier, so the persisted state is a
/// consistent cut of all tables and MLP replicas.
struct CheckpointPolicy {
  /// Directory snapshots go to (created on demand); empty disables saving.
  std::string directory;

  /// Save every N completed iterations (a final save always happens when
  /// saving is enabled); 0 means final-only.
  std::size_t every = 0;

  /// Every k-th save is a full snapshot, the rest are deltas against the
  /// previous save (<= 1 means every save is full).
  std::size_t full_every = 1;

  /// Registry codec for embedding-table payloads; empty stores raw
  /// float32 (bitwise-lossless, required for exact resume equivalence).
  std::string codec;

  /// Per-table absolute error bounds for the codec; empty means
  /// `global_eb` everywhere. Typically AnalysisReport bounds.
  std::vector<double> table_eb;
  double global_eb = 0.01;

  /// Path of a checkpoint (chain tail) to restore before training; empty
  /// starts fresh. Restores tables, MLPs, optimizer state and the
  /// iteration counter, so a lossless resume replays the uninterrupted
  /// run exactly.
  std::string resume_from;
};

/// Which comm backend carries the collectives. "sim" runs every rank as
/// a thread of this process over SimTransport (the default; what every
/// test and bench uses). "tcp" runs *this process* as one rank of a
/// world-sized process group over TcpTransport -- each process calls
/// train() with the same config except `rank`, and only rank 0's result
/// carries history/aggregates. Simulated clocks, loss trajectories and
/// wire CRCs are bitwise identical across backends at the same world.
struct TransportPolicy {
  std::string backend = "sim";  ///< "sim" (threads) | "tcp" (processes)

  /// This process's rank (tcp only; sim spawns all ranks itself).
  int rank = 0;
  /// Rendezvous address/port of rank 0's listener (tcp only). port == 0
  /// requires inherited_listen_fd on rank 0.
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;
  /// Pre-bound listening socket inherited from a launcher (tcp rank 0
  /// only; lets the parent pick an ephemeral port race-free). -1 = none.
  int inherited_listen_fd = -1;
  double connect_timeout_s = 30.0;
};

struct TrainerConfig {
  int world = 4;
  /// Global batch size; 0 uses the dataset default. Must divide by world.
  std::size_t global_batch = 0;
  std::size_t iterations = 200;
  DlrmConfig model;
  CompressionPolicy compression;
  CheckpointPolicy checkpoint;
  OverlapPolicy overlap;

  NetworkModel network;
  ComputeModel compute;
  DeviceModel device;
  TransportPolicy transport;

  std::uint64_t seed = 42;
  /// Record train loss/accuracy every N iterations (0 = every iteration).
  std::size_t record_every = 10;
  /// Evaluate on held-out batches every N iterations (0 = final only).
  std::size_t eval_every = 0;
  std::size_t eval_batches = 8;
};

struct IterationRecord {
  std::size_t iter = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double eval_accuracy = -1.0;  ///< -1 when no eval ran at this point
  double forward_cr = 0.0;      ///< compression ratio this iteration
  double eb_scale = 1.0;        ///< scheduler multiplier this iteration
};

struct TrainingResult {
  std::vector<IterationRecord> history;
  LossResult final_eval;

  /// First iteration this run executed (> 0 after a resume); history
  /// covers [start_iteration, iterations).
  std::size_t start_iteration = 0;

  /// Snapshot files written by this run, in save order.
  std::vector<std::string> checkpoints_written;

  /// Simulated per-phase seconds, summed over iterations, from the
  /// slowest rank's clock. Sums to makespan_seconds (exposed time only).
  std::map<std::string, double> phase_seconds;
  /// Communication seconds the same rank absorbed behind overlapped
  /// compute (the SimClock hidden ledger); empty when overlap is off.
  std::map<std::string, double> hidden_phase_seconds;
  double makespan_seconds = 0.0;  ///< simulated total (slowest rank)
  double wall_seconds = 0.0;      ///< real CPU time of the whole run

  /// Workspace/send-buffer (re)allocations in the all-to-all exchanges
  /// after the warm-up iterations, summed over ranks. Zero when
  /// steady-state exchanges are allocation-free (asserted in tests).
  std::uint64_t steady_state_grow_events = 0;

  std::uint64_t forward_raw_bytes = 0;
  std::uint64_t forward_wire_bytes = 0;
  std::uint64_t backward_raw_bytes = 0;
  std::uint64_t backward_wire_bytes = 0;

  /// CRC-32 over the compressed-exchange wire streams of the whole run:
  /// each rank folds its per-exchange A2AStats::wire_crc32 words in
  /// issue order (forward then backward, per iteration), and rank 0
  /// folds the per-rank words in rank order. Equal values between a sim
  /// and a tcp run of the same config mean the bytes that crossed the
  /// wire were identical, exchange by exchange, on every rank.
  std::uint32_t wire_crc32 = 0;

  /// Per-collective counts and modelled wire bytes, summed over ranks
  /// (the comm/* metrics keys); backend-independent by construction.
  CommStats comm_stats;
  std::uint64_t wire_bytes_sent = 0;  ///< modelled wire total over ranks

  /// Machine-readable run telemetry: byte totals and compression ratios
  /// (overall and per table, via the tagged all-to-all chunks), loss,
  /// iteration wall-time histogram, grow events, comm/* counts, and the
  /// slowest rank's SimClock ledgers under "sim/" (SimClock::export_to).
  /// The aggregated fields above are read back from it: each rank ships
  /// its totals as a snapshot, and rank 0 sums them key by key, takes
  /// sim/ whole from the slowest rank and CRC-folds train/wire_crc32.
  MetricsSnapshot metrics;

  [[nodiscard]] double forward_cr() const noexcept {
    return forward_wire_bytes == 0
               ? 1.0
               : static_cast<double>(forward_raw_bytes) /
                     static_cast<double>(forward_wire_bytes);
  }
  [[nodiscard]] double backward_cr() const noexcept {
    return backward_wire_bytes == 0
               ? 1.0
               : static_cast<double>(backward_raw_bytes) /
                     static_cast<double>(backward_wire_bytes);
  }

  /// Communication seconds (all-to-all payload + metadata + wait and the
  /// MLP all-reduce, excluding codec slices) that stalled the slowest
  /// rank, and the counterpart hidden behind overlapped compute.
  [[nodiscard]] double exposed_comm_seconds() const;
  [[nodiscard]] double hidden_comm_seconds() const;
};

class HybridParallelTrainer {
 public:
  /// Throws Error for an invalid config (world or iterations 0, an
  /// unknown backend, eval_batches 0).
  explicit HybridParallelTrainer(TrainerConfig config);

  /// Runs the full training loop on a fresh cluster and a fresh
  /// DlrmModel, which holds the tables, their optimizers and rank 0's
  /// MLPs. Deterministic in (config.seed, data source). `dataset` may be
  /// synthetic or a ShardedDatasetReader over real shards.
  [[nodiscard]] TrainingResult train(const BatchSource& dataset);

 private:
  TrainerConfig config_;
};

/// Phase-name constants shared by the trainer and the breakdown benches.
namespace phases {
inline constexpr const char* kBottomMlp = "bottom_mlp";
inline constexpr const char* kEmbLookup = "emb_lookup";
inline constexpr const char* kAllToAllFwd = "alltoall_fwd";
inline constexpr const char* kInteraction = "interaction";
inline constexpr const char* kTopMlp = "top_mlp";
inline constexpr const char* kAllToAllBwd = "alltoall_bwd";
inline constexpr const char* kAllReduce = "allreduce_mlp";
inline constexpr const char* kEmbUpdate = "emb_update";
}  // namespace phases

namespace detail {

/// Rank 0's side of the end-of-run aggregation, exposed for tests.
/// Parses rank `rank`'s totals document; throws Error naming the rank
/// unless it is a flat JSON object of finite numbers with no repeated key.
[[nodiscard]] MetricsSnapshot parse_rank_totals(
    std::span<const std::byte> document, std::size_t rank);

/// Folds the ranks' (at least one) totals in rank order: every key is
/// summed, except
/// the sim/ keys, which come whole from the first rank with the largest
/// sim/makespan, and train/wire_crc32, which CRC-folds the per-rank
/// words (each must be a u32; throws Error otherwise).
[[nodiscard]] MetricsSnapshot merge_rank_totals(
    const std::vector<MetricsSnapshot>& ranks);

}  // namespace detail

}  // namespace dlcomp
