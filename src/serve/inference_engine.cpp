#include "serve/inference_engine.hpp"

#include "ckpt/checkpoint.hpp"
#include "obs/trace.hpp"

namespace dlcomp {

InferenceEngine::InferenceEngine(const DatasetSpec& spec,
                                 const DlrmConfig& model_config,
                                 const EngineConfig& config,
                                 std::uint64_t seed)
    : model_(spec, model_config, seed) {
  if (!config.checkpoint_path.empty()) {
    load_checkpoint_into(model_, config.checkpoint_path);
  }
}

void InferenceEngine::use_store(ShardedEmbeddingStore* store) {
  if (store == nullptr) {
    router_.reset();
    model_.set_lookup_provider(nullptr);
    return;
  }
  router_ = std::make_unique<ShardRouter>(*store);
  model_.set_lookup_provider(
      [this](std::size_t table, std::span<const std::uint32_t> indices,
             Matrix& out) { router_->gather(table, indices, out); });
}

std::vector<float> InferenceEngine::run(const SampleBatch& batch) {
  DLCOMP_TRACE_SPAN("serve/forward");
  std::vector<float> probabilities(batch.batch_size());
  model_.predict(batch, probabilities);
  return probabilities;
}

}  // namespace dlcomp
