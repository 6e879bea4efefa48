#pragma once

/// \file model.hpp
/// Single-process DLRM reference model: bottom MLP + embedding lookups +
/// dot interaction + top MLP + BCE loss, trained with SGD.
///
/// The model has no codec: compressed training runs only through the
/// distributed trainer in dlcomp::core (HybridParallelTrainer), which
/// reuses these components. This model is the exact single-process
/// reference the trainer is tested against, and the serving tier's
/// scorer (through a LookupProvider).

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "data/batch_source.hpp"
#include "dlrm/embedding_table.hpp"
#include "dlrm/interaction.hpp"
#include "dlrm/loss.hpp"
#include "dlrm/mlp.hpp"
#include "dlrm/optimizer.hpp"

namespace dlcomp {

/// Model-zoo architecture: which interaction layer sits between the
/// embedding lookups and the top MLP (see interaction.hpp). Everything
/// else — bottom/top MLPs, tables, optimizer, the lookup provider — is
/// shared, so the serving tier runs unchanged across the zoo. The
/// distributed trainer supports kDlrm only.
enum class ModelArch : std::uint8_t {
  kDlrm,      ///< pairwise dot interaction (the paper's model)
  kWideDeep,  ///< Wide&Deep-shaped concatenation
  kNcf,       ///< NCF/GMF-shaped two-field element-wise product
};

/// Parses "dlrm" / "widedeep" / "ncf"; throws Error otherwise.
ModelArch parse_model_arch(std::string_view name);

/// Stable name of an architecture (inverse of parse_model_arch).
std::string_view model_arch_name(ModelArch arch) noexcept;

/// Interaction output width of `arch` for F tables of width dim.
std::size_t interaction_output_dim(ModelArch arch, std::size_t num_tables,
                                   std::size_t dim);

struct DlrmConfig {
  /// Bottom MLP hidden sizes (input = num_dense, output = embedding_dim
  /// are appended automatically).
  std::vector<std::size_t> bottom_hidden = {64, 32};
  /// Top MLP hidden sizes (input = interaction width, output = 1).
  std::vector<std::size_t> top_hidden = {64, 32};
  float learning_rate = 0.1f;
  /// Embedding-table update rule (MLPs always use SGD, as in DLRM).
  EmbeddingOptimizerKind embedding_optimizer = EmbeddingOptimizerKind::kSgd;
  /// Interaction architecture (kNcf needs >= 2 tables).
  ModelArch arch = ModelArch::kDlrm;
};

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
  /// pass without a LookupProvider) as make_embedding_set(spec, seed), so
  /// a replica that only ever serves through a provider never draws them.
  DlrmModel(const DatasetSpec& spec, const DlrmConfig& config,
            std::uint64_t seed);

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
