#include "dlrm/model.hpp"

#include "common/error.hpp"

namespace dlcomp {

std::vector<std::size_t> bottom_dims(const DatasetSpec& spec,
                                     const DlrmConfig& config) {
  std::vector<std::size_t> dims;
  dims.push_back(spec.num_dense);
  dims.insert(dims.end(), config.bottom_hidden.begin(),
              config.bottom_hidden.end());
  dims.push_back(spec.embedding_dim);
  return dims;
}

std::vector<std::size_t> top_dims(const DatasetSpec& spec,
                                  const DlrmConfig& config) {
  std::vector<std::size_t> dims;
  dims.push_back(
      DotInteraction::output_dim(spec.num_tables(), spec.embedding_dim));
  dims.insert(dims.end(), config.top_hidden.begin(), config.top_hidden.end());
  dims.push_back(1);
  return dims;
}

DlrmModel::DlrmModel(const DatasetSpec& spec, const DlrmConfig& config,
                     std::uint64_t seed, std::size_t rank, std::size_t world)
    : spec_(spec),
      config_(config),
      seed_(seed),
      rank_(rank),
      world_(world),
      bottom_([&] {
        Rng rng(seed);
        auto rng_b = rng.fork({0xB0});
        const auto dims = bottom_dims(spec, config);
        return Mlp(dims, rng_b);
      }()),
      top_([&] {
        Rng rng(seed);
        auto rng_t = rng.fork({0x70});
        const auto dims = top_dims(spec, config);
        return Mlp(dims, rng_t);
      }()) {
  optimizers_.reserve(spec_.num_tables());
  for (std::size_t t = 0; t < spec_.num_tables(); ++t) {
    optimizers_.emplace_back(config_.embedding_optimizer,
                             config_.learning_rate);
  }
  lookups_.resize(spec_.num_tables());
}

std::vector<EmbeddingTable>& DlrmModel::drawn_tables() const {
  std::call_once(*draw_once_, [this] {
    tables_ = make_embedding_set(spec_, seed_, rank_, world_);
  });
  return tables_;
}

const Matrix& DlrmModel::forward(const SampleBatch& batch) {
  const std::size_t B = batch.batch_size();
  const std::size_t num_tables = spec_.num_tables();
  DLCOMP_CHECK(batch.indices.size() == num_tables);

  z0_ = bottom_.forward(batch.dense);

  // A provider replaces the model's tables, so serving through one never
  // draws them.
  const std::vector<EmbeddingTable>* own =
      lookup_provider_ ? nullptr : &drawn_tables();
  for (std::size_t t = 0; t < num_tables; ++t) {
    lookups_[t].resize(B, spec_.embedding_dim);
    if (own == nullptr) {
      lookup_provider_(t, batch.indices[t], lookups_[t]);
    } else {
      (*own)[t].lookup(batch.indices[t], lookups_[t]);
    }
  }

  interaction_out_.resize(
      B, DotInteraction::output_dim(num_tables, spec_.embedding_dim));
  DotInteraction::forward(z0_, lookups_, interaction_out_);
  return top_.forward(interaction_out_);
}

LossResult DlrmModel::train_step(const SampleBatch& batch) {
  DLCOMP_CHECK_MSG(!lookup_provider_,
                   "train_step is not supported while a lookup provider is "
                   "installed (updates would never reach the served store)");
  const std::size_t B = batch.batch_size();
  const Matrix& logits = forward(batch);

  Matrix dlogits(B, 1);
  const LossResult result =
      bce_with_logits(logits.flat(), batch.labels, dlogits.flat());

  const Matrix dfeat = top_.backward(dlogits);

  const std::size_t num_tables = spec_.num_tables();
  Matrix dz0(B, spec_.embedding_dim);
  std::vector<Matrix> demb(num_tables);
  for (auto& d : demb) d.resize(B, spec_.embedding_dim);
  DotInteraction::backward(z0_, lookups_, dfeat, dz0, std::span<Matrix>(demb));

  (void)bottom_.backward(dz0);

  std::vector<EmbeddingTable>& tables = drawn_tables();
  for (std::size_t t = 0; t < num_tables; ++t) {
    optimizers_[t].apply(tables[t], batch.indices[t], demb[t]);
  }
  bottom_.sgd_step(config_.learning_rate);
  top_.sgd_step(config_.learning_rate);
  return result;
}

LossResult DlrmModel::evaluate(const SampleBatch& batch) {
  const Matrix& logits = forward(batch);
  return bce_with_logits(logits.flat(), batch.labels);
}

void DlrmModel::predict(const SampleBatch& batch,
                        std::span<float> probabilities) {
  DLCOMP_CHECK(probabilities.size() == batch.batch_size());
  const Matrix& logits = forward(batch);
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    probabilities[i] = static_cast<float>(sigmoid(logits.flat()[i]));
  }
}

LossResult DlrmModel::evaluate_stream(const BatchSource& data,
                                      std::size_t batch_size,
                                      std::size_t batches) {
  DLCOMP_CHECK(batches > 0);
  LossResult total;
  for (std::size_t i = 0; i < batches; ++i) {
    const SampleBatch batch = data.make_eval_batch(batch_size, i);
    const LossResult r = evaluate(batch);
    total.loss += r.loss;
    total.accuracy += r.accuracy;
  }
  total.loss /= static_cast<double>(batches);
  total.accuracy /= static_cast<double>(batches);
  return total;
}

}  // namespace dlcomp
