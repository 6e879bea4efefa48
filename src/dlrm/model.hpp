#pragma once

/// \file model.hpp
/// The DLRM: bottom MLP + embedding lookups + pairwise dot interaction +
/// top MLP + BCE loss, trained with SGD (Adagrad optional for the tables).
/// It is the system's one model:
///   - train_step() is the exact single-process reference;
///   - the distributed trainer (HybridParallelTrainer) keeps its state in
///     one: the tables and their optimizers, rank 0's MLPs, its held-out
///     eval and its checkpoints (make_model_state);
///   - the serving tier scores with it, optionally through a
///     LookupProvider.
///
/// The model has no codec: compressed training runs only through the
/// trainer's all-to-all.

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/batch_source.hpp"
#include "dlrm/embedding_table.hpp"
#include "dlrm/interaction.hpp"
#include "dlrm/loss.hpp"
#include "dlrm/mlp.hpp"
#include "dlrm/optimizer.hpp"

namespace dlcomp {

struct DlrmConfig {
  /// Bottom MLP hidden sizes (input = num_dense, output = embedding_dim
  /// are appended automatically).
  std::vector<std::size_t> bottom_hidden = {64, 32};
  /// Top MLP hidden sizes (input = interaction width, output = 1).
  std::vector<std::size_t> top_hidden = {64, 32};
  float learning_rate = 0.1f;
  /// Embedding-table update rule (MLPs always use SGD, as in DLRM).
  EmbeddingOptimizerKind embedding_optimizer = EmbeddingOptimizerKind::kSgd;
};

/// Bottom MLP layer widths: {num_dense, bottom_hidden..., embedding_dim}.
std::vector<std::size_t> bottom_dims(const DatasetSpec& spec,
                                     const DlrmConfig& config);

/// Top MLP layer widths: {dot-interaction width, top_hidden..., 1}.
std::vector<std::size_t> top_dims(const DatasetSpec& spec,
                                  const DlrmConfig& config);

class DlrmModel {
 public:
  /// Replaces the lookup source: fills `out` (indices.size() x dim) with
  /// the served rows for `table`. This is the sharded serving tier's
  /// injection point -- a ShardRouter scatter/gathers the rows from the
  /// fleet-shared store instead of the model's weights.
  using LookupProvider = std::function<void(
      std::size_t table, std::span<const std::uint32_t> indices, Matrix& out)>;

  /// Builds the MLPs now; the embedding tables are drawn on first access
  /// to table storage (table(), tables(), lookup_table(), or a forward
  /// pass without a LookupProvider) as make_embedding_set(spec, seed,
  /// rank, world), so a replica that only ever serves through a provider
  /// never draws them. With world > 1 only the tables rank owns are drawn
  /// (a TCP trainer rank); the others stay zero.
  DlrmModel(const DatasetSpec& spec, const DlrmConfig& config,
            std::uint64_t seed, std::size_t rank = 0, std::size_t world = 1);

  /// One exact SGD step on a batch.
  LossResult train_step(const SampleBatch& batch);

  /// Forward-only evaluation of one batch.
  LossResult evaluate(const SampleBatch& batch);

  /// Forward-only scoring for the serving path: fills `probabilities`
  /// (size == batch.batch_size()) with sigmoid(logit) per sample, looked
  /// up from the model's tables or the installed LookupProvider.
  void predict(const SampleBatch& batch, std::span<float> probabilities);

  /// Mean evaluation over `batches` held-out batches.
  LossResult evaluate_stream(const BatchSource& data,
                             std::size_t batch_size, std::size_t batches);

  [[nodiscard]] std::size_t num_tables() const noexcept {
    return spec_.num_tables();
  }
  [[nodiscard]] EmbeddingTable& table(std::size_t t) {
    return drawn_tables().at(t);
  }
  /// All embedding tables (e.g. to build a serving store from the
  /// checkpoint-loaded weights).
  [[nodiscard]] std::span<const EmbeddingTable> tables() const {
    return drawn_tables();
  }
  [[nodiscard]] std::span<EmbeddingTable> tables() { return drawn_tables(); }
  [[nodiscard]] EmbeddingOptimizer& optimizer(std::size_t t) {
    return optimizers_.at(t);
  }
  [[nodiscard]] const DatasetSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] Mlp& bottom_mlp() noexcept { return bottom_; }
  [[nodiscard]] Mlp& top_mlp() noexcept { return top_; }

  /// Installs (or clears, with null) the lookup provider forward() uses
  /// instead of the model's own embedding tables. Training through a
  /// provider is not supported (the optimizer would update weights the
  /// provider never re-reads), so train_step throws while one is set.
  void set_lookup_provider(LookupProvider provider) {
    lookup_provider_ = std::move(provider);
  }

  /// Looks up one table for a batch (helper for analysis passes that need
  /// raw lookup tensors, e.g. Homo-Index sampling).
  void lookup_table(std::size_t t, std::span<const std::uint32_t> indices,
                    Matrix& out) const {
    drawn_tables().at(t).lookup(indices, out);
  }

 private:
  /// Shared forward machinery; returns logits and fills the caches
  /// train_step's backward pass reads.
  const Matrix& forward(const SampleBatch& batch);

  /// The embedding tables, drawn on the first call (thread-safe; the
  /// draw runs once per model).
  std::vector<EmbeddingTable>& drawn_tables() const;

  DatasetSpec spec_;
  DlrmConfig config_;
  std::uint64_t seed_;
  std::size_t rank_;
  std::size_t world_;
  Mlp bottom_;
  Mlp top_;
  mutable std::vector<EmbeddingTable> tables_;  ///< empty until drawn
  /// Heap-held so the model stays movable (engine replicas live in a
  /// vector).
  std::unique_ptr<std::once_flag> draw_once_ =
      std::make_unique<std::once_flag>();
  std::vector<EmbeddingOptimizer> optimizers_;  // one per table
  LookupProvider lookup_provider_;  // null = serve from tables_

  // Forward caches.
  Matrix z0_;
  std::vector<Matrix> lookups_;
  Matrix interaction_out_;
};

}  // namespace dlcomp
