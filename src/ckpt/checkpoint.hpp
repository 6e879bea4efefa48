#pragma once

/// \file checkpoint.hpp
/// Compressed model checkpointing: the paper's per-table error bounds
/// applied to *at-rest* state. A snapshot stores MLP parameters and
/// optimizer state losslessly (they are small and resume must be exact)
/// while embedding tables -- the bulk of DLRM state -- go through any
/// registered error-bounded codec with per-table bounds taken from a
/// CompressionPolicy or an offline-analysis CompressionPlan.
///
/// Two snapshot kinds (see container.hpp for the envelope):
///   - full: complete state; establishes the delta baseline,
///   - delta: only rows whose values moved more than the table's error
///     bound since the previous save (touched-row bitmap + compressed
///     payload), with full MLP/optimizer-row deltas so a chain replay
///     reconstructs resume-grade state.
///
/// The writer tracks the reader-visible reconstruction of every table
/// ("shadow" state), so lossy reconstruction error never accumulates
/// across a chain: after replaying full + any number of deltas, every
/// embedding element is within its table's bound of the live weights at
/// the last save.

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/container.hpp"
#include "compress/chunked.hpp"
#include "compress/compressor.hpp"
#include "core/report_io.hpp"
#include "core/trainer.hpp"
#include "dlrm/model.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/matrix.hpp"

namespace dlcomp {

/// How embedding tables are encoded at rest.
struct CheckpointOptions {
  /// Registry codec name for table payloads; empty stores raw float32
  /// (bitwise-lossless snapshots).
  std::string codec;

  /// Per-table absolute error bounds; empty means `global_eb` everywhere.
  std::vector<double> table_eb;
  double global_eb = 0.01;

  /// Per-table hybrid codec choices (meaningful for codec="hybrid").
  std::vector<HybridChoice> table_choice;

  /// Worker pool for parallel per-table (de)compression; null = serial.
  ThreadPool* pool = nullptr;
};

/// Builds options from the trainer's wire-compression policy (same codec
/// and per-table bounds at rest as on the all-to-all).
CheckpointOptions checkpoint_options_from(const CompressionPolicy& policy);

/// Builds options from an offline-analysis plan (hybrid codec with the
/// analyzer's per-table bounds and codec choices).
CheckpointOptions checkpoint_options_from(const CompressionPlan& plan);

/// Non-owning view of the state a checkpoint covers: a DlrmModel's
/// weights and optimizer state, as make_model_state() builds it (the
/// trainer keeps its state in one).
struct ModelState {
  std::uint64_t iteration = 0;  ///< completed training iterations
  std::uint64_t seed = 0;       ///< trainer seed (for provenance)
  Mlp* bottom = nullptr;
  Mlp* top = nullptr;
  std::vector<Matrix*> tables;     ///< per-table weights (rows x dim)
  std::vector<Matrix*> opt_state;  ///< per-table Adagrad accumulator; null
                                   ///< or empty entries mean no state yet
  EmbeddingOptimizerKind opt_kind = EmbeddingOptimizerKind::kSgd;
};

/// Views a DlrmModel's weights + optimizer state as a ModelState.
ModelState make_model_state(DlrmModel& model, std::uint64_t iteration = 0,
                            std::uint64_t seed = 0);

/// One fully materialized table after load/replay.
struct LoadedTable {
  std::uint64_t rows = 0;
  std::uint32_t dim = 0;
  double error_bound = 0.0;  ///< 0 when stored losslessly
  bool lossy = false;
  std::vector<float> values;     ///< rows * dim
  std::vector<float> opt_state;  ///< rows * dim, or empty
};

/// A checkpoint after reading (and, for deltas, chain replay).
struct LoadedCheckpoint {
  CkptHeader header;
  std::string codec;  ///< codec of the newest container in the chain
  EmbeddingOptimizerKind opt_kind = EmbeddingOptimizerKind::kSgd;
  std::string parent_file;        ///< empty for full snapshots
  std::size_t chain_length = 1;   ///< containers replayed to build this
  std::vector<std::vector<float>> bottom_params;  ///< per Mlp param view
  std::vector<std::vector<float>> top_params;
  std::vector<LoadedTable> tables;
};

/// Serializes snapshots. Keeps shadow (reader-visible) state between
/// saves so delta encoding and error-accumulation control work; one
/// writer instance therefore serves one model lifecycle.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(CheckpointOptions options);

  /// Writes a complete snapshot and resets the delta baseline.
  void save_full(const std::string& path, const ModelState& state);

  /// Writes rows that moved more than each table's bound since the last
  /// save. Throws Error when no snapshot has been written yet.
  void save_delta(const std::string& path, const ModelState& state);

  /// Convenience policy: full on the first call and every `full_every`-th
  /// save (full_every <= 1 means always full), delta otherwise. Returns
  /// the path written.
  std::string save(const std::string& path, const ModelState& state,
                   std::size_t full_every);

  [[nodiscard]] const CheckpointOptions& options() const noexcept {
    return options_;
  }

 private:
  [[nodiscard]] double table_eb(std::size_t t) const noexcept;
  [[nodiscard]] CompressParams table_params(std::size_t t,
                                            std::size_t dim) const noexcept;
  void check_shapes(const ModelState& state) const;

  /// A container image and where each table's two sections start in it
  /// (one offset per table, then the image size).
  struct Image {
    std::vector<std::byte> bytes;
    std::vector<std::size_t> table_at;
  };

  /// Writes the next container of `kind` to `path`: the file header,
  /// meta and MLP sections, then tables(w, t) for each table's two
  /// sections. A measuring pass lays the image out; then every table is
  /// framed in place at its offset, CRC included, one table per pool
  /// task. Once the file is written it becomes the next delta's parent.
  /// Returns the image.
  template <typename Tables>
  Image write_image(const std::string& path, CkptKind kind,
                    const ModelState& state, const Tables& tables);
  /// Opens table t's section: shape, storage byte (1 for a codec stream,
  /// 0 for raw float32 or no `slot`) and error bound.
  void put_table_head(SectionWriter& w, CkptSection type, std::size_t t,
                      const Matrix& weights, std::size_t slot) const;
  /// Writes slot's engine stream after its u64 length (0 bytes for no
  /// slot) and closes the section.
  void put_stream(SectionWriter& w, std::size_t slot) const;
  /// Decodes the deferred full snapshot into shadow_ and shadow_opt_.
  void materialize_shadow();

  CheckpointOptions options_;
  const Compressor* codec_ = nullptr;  ///< registry singleton or null

  std::size_t saves_ = 0;
  std::uint64_t last_id_ = 0;
  std::string last_file_;           ///< basename of the last container
  std::vector<Matrix> shadow_;      ///< reader-visible table values
  std::vector<Matrix> shadow_opt_;  ///< reader-visible optimizer state

  /// save_full defers the shadow: it keeps the image it wrote and only
  /// decodes the table streams (and copies the optimizer state) out of
  /// it if a save_delta follows, so one-shot full snapshots pay no
  /// decompress round-trip and hold no second copy of the model state.
  Image pending_image_;

  /// Blocked parallel codec batches (see chunked.hpp): every table's
  /// encode — split into blocks when large — runs as one flat task list,
  /// so a snapshot dominated by a single huge table still scales with
  /// the pool instead of serializing on that table. Raw (codec-less)
  /// checkpoints use the engine's raw mode.
  std::unique_ptr<BlockEngine> engine_;
};

/// Deserializes containers, verifying magic/version/CRCs.
class CheckpointReader {
 public:
  explicit CheckpointReader(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Loads `path`, recursively replaying the parent chain when it is a
  /// delta (parent filenames resolve relative to `path`'s directory).
  [[nodiscard]] LoadedCheckpoint load(const std::string& path) const;

 private:
  [[nodiscard]] LoadedCheckpoint load_one(const std::string& path,
                                          std::size_t depth) const;
  ThreadPool* pool_;
};

/// Copies loaded state into live model objects; throws Error on any
/// shape mismatch (table count/rows/dim, MLP view sizes).
void apply_model_state(const LoadedCheckpoint& ckpt, const ModelState& state);

/// Convenience: load `path` (chain replay included) into a DlrmModel.
void load_checkpoint_into(DlrmModel& model, const std::string& path,
                          ThreadPool* pool = nullptr);

/// Section inventory of a single container (no chain resolution); the
/// CLI's inspect/verify subcommands print this.
struct ContainerInfo {
  CkptHeader header;
  std::string codec;
  std::string parent_file;
  std::size_t file_bytes = 0;
  /// Uncompressed float32 bytes the table sections represent.
  std::size_t table_raw_bytes = 0;
  /// On-disk bytes of the table sections (compressed payloads).
  std::size_t table_stored_bytes = 0;
  std::size_t delta_touched_rows = 0;  ///< summed over tables (deltas only)
  struct Section {
    CkptSection type{};
    std::uint32_t id = 0;
    std::size_t bytes = 0;
  };
  std::vector<Section> sections;
};

/// Parses one container, CRC-checking every section.
ContainerInfo inspect_checkpoint(const std::string& path);

}  // namespace dlcomp
