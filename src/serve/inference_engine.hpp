#pragma once

/// \file inference_engine.hpp
/// Forward-only DLRM scoring engine for the serving path. An engine
/// serves either exactly, from its model's own embedding tables, or from
/// a ShardedEmbeddingStore (use_store()), whose tables are kept
/// error-bounded compressed at rest in pages behind a hot-row cache. The
/// store is the one way compressed embeddings are served: every value it
/// returns is within the store's error bound of the exact row, and the
/// store keeps the byte and error accounting (ShardStoreStats).
///
/// An engine is NOT thread-safe (the model keeps forward caches); the
/// ServingSimulator runs one engine replica per worker.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "dlrm/model.hpp"
#include "serve/router.hpp"

namespace dlcomp {

struct EngineConfig {
  /// Checkpoint file (`.dlck`, chain tail allowed) to load trained model
  /// weights from; empty serves the seed-initialized model. Shapes must
  /// match the engine's DatasetSpec/DlrmConfig.
  std::string checkpoint_path;
};

class InferenceEngine {
 public:
  /// Builds the model (weights deterministic in `seed`, so every replica
  /// constructed with the same arguments scores identically; the
  /// embedding tables are drawn on first read, so a replica serving
  /// through use_store() never draws its own). When
  /// `config.checkpoint_path` is set the initial weights are replaced by
  /// the checkpoint's (delta chains are replayed), so a fleet serves the
  /// trained model a HybridParallelTrainer persisted.
  InferenceEngine(const DatasetSpec& spec, const DlrmConfig& model_config,
                  const EngineConfig& config, std::uint64_t seed);

  /// Scores a batch: per-sample click probabilities.
  std::vector<float> run(const SampleBatch& batch);

  /// Serves embeddings from a sharded store instead of the model's own
  /// tables: installs a private ShardRouter over `store` as the model's
  /// LookupProvider. Pass null to restore table-local serving. The store
  /// must outlive the engine and may be shared by many engines (it locks
  /// per shard).
  void use_store(ShardedEmbeddingStore* store);

  [[nodiscard]] bool sharded() const noexcept { return router_ != nullptr; }

  [[nodiscard]] DlrmModel& model() noexcept { return model_; }

 private:
  DlrmModel model_;
  std::unique_ptr<ShardRouter> router_;  ///< set by use_store(); engine-private
};

}  // namespace dlcomp
