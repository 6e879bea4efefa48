// Tests for the DLRM substrate: layer correctness via finite-difference
// gradient checks, and end-to-end learning on the synthetic workload.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "dlrm/embedding_table.hpp"
#include "dlrm/interaction.hpp"
#include "dlrm/loss.hpp"
#include "dlrm/mlp.hpp"
#include "dlrm/model.hpp"
#include "data/synthetic.hpp"
#include "support/reference_table_init.hpp"
#include "support/simd_tiers.hpp"

namespace dlcomp {
namespace {

TEST(Loss, KnownValues) {
  // logit 0 -> p = 0.5: loss = ln 2 regardless of label.
  const std::vector<float> logits = {0.0f};
  const std::vector<float> labels = {1.0f};
  const LossResult r = bce_with_logits(logits, labels);
  EXPECT_NEAR(r.loss, std::log(2.0), 1e-9);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);  // p=0.5 rounds to positive
}

TEST(Loss, GradientMatchesFiniteDifference) {
  const std::vector<float> logits = {0.3f, -1.2f, 2.0f};
  const std::vector<float> labels = {1.0f, 0.0f, 1.0f};
  std::vector<float> grad(3);
  bce_with_logits(logits, labels, grad);

  const double h = 1e-4;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    auto bumped = logits;
    bumped[i] += static_cast<float>(h);
    const double up = bce_with_logits(bumped, labels).loss;
    bumped[i] -= static_cast<float>(2 * h);
    const double down = bce_with_logits(bumped, labels).loss;
    const double numeric = (up - down) / (2 * h);
    EXPECT_NEAR(grad[i], numeric, 1e-3) << i;
  }
}

TEST(Loss, StableAtExtremeLogits) {
  const std::vector<float> logits = {80.0f, -80.0f};
  const std::vector<float> labels = {1.0f, 0.0f};
  const LossResult r = bce_with_logits(logits, labels);
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_NEAR(r.loss, 0.0, 1e-9);
}

TEST(Mlp, ForwardShapes) {
  Rng rng(1);
  const std::vector<std::size_t> dims = {5, 8, 3};
  Mlp mlp(dims, rng);
  EXPECT_EQ(mlp.input_dim(), 5u);
  EXPECT_EQ(mlp.output_dim(), 3u);
  EXPECT_EQ(mlp.num_layers(), 2u);

  Matrix x = Matrix::rand_uniform(rng, 7, 5, -1.0f, 1.0f);
  const Matrix& y = mlp.forward(x);
  EXPECT_EQ(y.rows(), 7u);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(Mlp, GradientCheck) {
  Rng rng(2);
  const std::vector<std::size_t> dims = {4, 6, 2};
  Mlp mlp(dims, rng);
  Matrix x = Matrix::rand_uniform(rng, 3, 4, -1.0f, 1.0f);

  // Scalar objective: sum of outputs. dObjective/dOutput = ones.
  auto objective = [&]() {
    const Matrix& y = mlp.forward(x);
    double total = 0.0;
    for (const float v : y.flat()) total += v;
    return total;
  };

  (void)objective();
  Matrix ones(3, 2, 1.0f);
  const Matrix dx = mlp.backward(ones);

  // Check input gradient entries against finite differences.
  const double h = 1e-3;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float saved = x.flat()[i];
    x.flat()[i] = saved + static_cast<float>(h);
    const double up = objective();
    x.flat()[i] = saved - static_cast<float>(h);
    const double down = objective();
    x.flat()[i] = saved;
    const double numeric = (up - down) / (2 * h);
    EXPECT_NEAR(dx.flat()[i], numeric, 2e-2) << "input grad " << i;
  }

  // Check a few weight gradients via param/grad views.
  mlp.zero_grad();
  (void)objective();
  (void)mlp.backward(ones);
  auto params = mlp.param_views();
  auto grads = mlp.grad_views();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t view = 0; view < params.size(); ++view) {
    for (const std::size_t i : {std::size_t{0}, params[view].size() / 2}) {
      const float saved = params[view][i];
      params[view][i] = saved + static_cast<float>(h);
      const double up = objective();
      params[view][i] = saved - static_cast<float>(h);
      const double down = objective();
      params[view][i] = saved;
      const double numeric = (up - down) / (2 * h);
      EXPECT_NEAR(grads[view][i], numeric, 2e-2)
          << "view " << view << " index " << i;
    }
  }
}

TEST(Mlp, SgdStepReducesQuadraticObjective) {
  Rng rng(3);
  const std::vector<std::size_t> dims = {2, 4, 1};
  Mlp mlp(dims, rng);
  Matrix x(1, 2);
  x(0, 0) = 1.0f;
  x(0, 1) = -1.0f;

  auto loss_value = [&]() {
    const Matrix& y = mlp.forward(x);
    const double d = y(0, 0) - 3.0;
    return d * d;
  };
  for (int step = 0; step < 200; ++step) {
    const Matrix& y = mlp.forward(x);
    Matrix dy(1, 1);
    dy(0, 0) = 2.0f * (y(0, 0) - 3.0f);
    (void)mlp.backward(dy);
    mlp.sgd_step(0.05f);
  }
  EXPECT_LT(loss_value(), 1e-3);
}

TEST(Interaction, OutputDimFormula) {
  EXPECT_EQ(DotInteraction::output_dim(26, 32), 32u + 27u * 26u / 2u);
  EXPECT_EQ(DotInteraction::output_dim(0, 8), 8u);
}

TEST(Interaction, ForwardValues) {
  // One sample, dim 2, one embedding: out = [z0, <z0,e0>].
  Matrix z0(1, 2);
  z0(0, 0) = 1.0f;
  z0(0, 1) = 2.0f;
  std::vector<Matrix> emb(1, Matrix(1, 2));
  emb[0](0, 0) = 3.0f;
  emb[0](0, 1) = 4.0f;

  Matrix out(1, DotInteraction::output_dim(1, 2));
  DotInteraction::forward(z0, emb, out);
  EXPECT_FLOAT_EQ(out(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(out(0, 2), 11.0f);  // 1*3 + 2*4
}

TEST(Interaction, GradientCheck) {
  Rng rng(4);
  const std::size_t batch = 2;
  const std::size_t dim = 3;
  const std::size_t features = 2;
  Matrix z0 = Matrix::rand_uniform(rng, batch, dim, -1.0f, 1.0f);
  std::vector<Matrix> emb;
  for (std::size_t f = 0; f < features; ++f) {
    emb.push_back(Matrix::rand_uniform(rng, batch, dim, -1.0f, 1.0f));
  }
  const std::size_t width = DotInteraction::output_dim(features, dim);
  const Matrix weights = Matrix::rand_uniform(rng, batch, width, -1.0f, 1.0f);

  auto objective = [&]() {
    Matrix out(batch, width);
    DotInteraction::forward(z0, emb, out);
    double total = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      total += out.flat()[i] * weights.flat()[i];
    }
    return total;
  };

  Matrix dz0(batch, dim);
  std::vector<Matrix> demb(features, Matrix(batch, dim));
  DotInteraction::backward(z0, emb, weights, dz0, demb);

  const double h = 1e-3;
  for (std::size_t i = 0; i < z0.size(); ++i) {
    const float saved = z0.flat()[i];
    z0.flat()[i] = saved + static_cast<float>(h);
    const double up = objective();
    z0.flat()[i] = saved - static_cast<float>(h);
    const double down = objective();
    z0.flat()[i] = saved;
    EXPECT_NEAR(dz0.flat()[i], (up - down) / (2 * h), 2e-2);
  }
  for (std::size_t f = 0; f < features; ++f) {
    for (std::size_t i = 0; i < emb[f].size(); ++i) {
      const float saved = emb[f].flat()[i];
      emb[f].flat()[i] = saved + static_cast<float>(h);
      const double up = objective();
      emb[f].flat()[i] = saved - static_cast<float>(h);
      const double down = objective();
      emb[f].flat()[i] = saved;
      EXPECT_NEAR(demb[f].flat()[i], (up - down) / (2 * h), 2e-2);
    }
  }
}

TEST(EmbeddingTableTest, LookupGathersRows) {
  EmbeddingTable table(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    table.weights()(r, 0) = static_cast<float>(r);
    table.weights()(r, 1) = static_cast<float>(10 * r);
  }
  const std::vector<std::uint32_t> idx = {2, 0, 2};
  Matrix out(3, 2);
  table.lookup(idx, out);
  EXPECT_FLOAT_EQ(out(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out(1, 1), 0.0f);
  EXPECT_FLOAT_EQ(out(2, 1), 20.0f);
}

TEST(EmbeddingTableTest, DuplicateIndexGradientsAccumulate) {
  EmbeddingTable table(3, 1);
  table.weights().fill(1.0f);
  const std::vector<std::uint32_t> idx = {1, 1};
  Matrix grads(2, 1);
  grads(0, 0) = 0.5f;
  grads(1, 0) = 0.25f;
  table.apply_gradients(idx, grads, 1.0f);
  EXPECT_FLOAT_EQ(table.weights()(1, 0), 1.0f - 0.75f);
  EXPECT_FLOAT_EQ(table.weights()(0, 0), 1.0f);
}

TEST(EmbeddingTableTest, OutOfRangeIndexThrows) {
  EmbeddingTable table(3, 2);
  const std::vector<std::uint32_t> idx = {5};
  Matrix out(1, 2);
  EXPECT_THROW(table.lookup(idx, out), Error);
}

TEST(EmbeddingTableTest, InitFollowsSpecDistribution) {
  Rng rng(5);
  TableSpec gaussian;
  gaussian.cardinality = 2000;
  gaussian.value_dist = ValueDist::kGaussian;
  gaussian.value_scale = 0.1f;
  const auto gt = EmbeddingTable::init_from_spec(gaussian, 8, rng);

  TableSpec uniform;
  uniform.cardinality = 2000;
  uniform.value_dist = ValueDist::kUniform;
  uniform.value_scale = 0.25f;
  const auto ut = EmbeddingTable::init_from_spec(uniform, 8, rng);

  // Uniform values never exceed the half-range; Gaussian tails do exceed
  // one sigma.
  float gmax = 0.0f;
  float umax = 0.0f;
  for (const float v : gt.weights().flat()) gmax = std::max(gmax, std::fabs(v));
  for (const float v : ut.weights().flat()) umax = std::max(umax, std::fabs(v));
  EXPECT_GT(gmax, 0.25f);
  EXPECT_LE(umax, 0.25f);
}

bool same_bytes(const EmbeddingTable& a, const EmbeddingTable& b) {
  return a.rows() == b.rows() && a.dim() == b.dim() &&
         std::memcmp(a.weights().data(), b.weights().data(),
                     a.weights().size() * sizeof(float)) == 0;
}

bool all_zero(const EmbeddingTable& table) {
  return std::ranges::all_of(table.weights().flat(),
                             [](float v) { return v == 0.0f; });
}

TEST(EmbeddingSetTest, ParallelBuildMatchesSerialReference) {
  // The pool may run tables in any order on any thread, and every SIMD
  // tier draws Gaussian values in bulk; the bytes must still be those of
  // drawing table t from fork({0xE0, t}) one element at a time.
  constexpr std::uint64_t kSeed = 42;
  for (const DatasetSpec& spec : {DatasetSpec::criteo_terabyte_like(20000),
                                  DatasetSpec::criteo_kaggle_like(20000)}) {
    SCOPED_TRACE(spec.name);
    std::vector<Matrix> reference;
    const Rng rng(kSeed);
    for (std::size_t t = 0; t < spec.num_tables(); ++t) {
      Rng rng_t = rng.fork({0xE0, t});
      reference.push_back(reference::init_table_from_spec(
          spec.tables[t], spec.embedding_dim, rng_t));
    }
    for_each_available_isa([&](simd::Isa) {
      const std::vector<EmbeddingTable> tables =
          make_embedding_set(spec, kSeed);
      ASSERT_EQ(tables.size(), spec.num_tables());
      for (std::size_t t = 0; t < spec.num_tables(); ++t) {
        const Matrix& want = reference[t];
        const Matrix& got = tables[t].weights();
        EXPECT_TRUE(got.rows() == want.rows() && got.cols() == want.cols() &&
                    std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(float)) == 0)
            << "table " << t;
      }
    });
  }
}

TEST(EmbeddingSetTest, RankDrawsOnlyOwnedTables) {
  const DatasetSpec spec = DatasetSpec::criteo_kaggle_like(2000);
  const std::vector<EmbeddingTable> full = make_embedding_set(spec, 7);
  for (const std::size_t world : {std::size_t{3}, std::size_t{4}}) {
    for (std::size_t rank = 0; rank < world; ++rank) {
      SCOPED_TRACE("rank " + std::to_string(rank) + " of " +
                   std::to_string(world));
      const std::vector<EmbeddingTable> mine =
          make_embedding_set(spec, 7, rank, world);
      ASSERT_EQ(mine.size(), full.size());
      for (std::size_t t = 0; t < full.size(); ++t) {
        ASSERT_EQ(mine[t].rows(), spec.tables[t].cardinality) << "table " << t;
        ASSERT_EQ(mine[t].dim(), spec.embedding_dim) << "table " << t;
        if (t % world == rank) {
          EXPECT_TRUE(same_bytes(mine[t], full[t])) << "owned table " << t;
        } else {
          EXPECT_TRUE(all_zero(mine[t])) << "peer table " << t;
        }
      }
    }
  }
  EXPECT_THROW(make_embedding_set(spec, 7, 4, 4), Error);
  EXPECT_THROW(make_embedding_set(spec, 7, 0, 0), Error);
}

TEST(EmbeddingSetTest, ModelTablesAreTheEmbeddingSet) {
  const DatasetSpec spec = DatasetSpec::criteo_kaggle_like(2000);
  const DlrmModel model(spec, {}, 31);
  const std::vector<EmbeddingTable> tables = make_embedding_set(spec, 31);
  ASSERT_EQ(model.tables().size(), tables.size());
  for (std::size_t t = 0; t < tables.size(); ++t) {
    EXPECT_TRUE(same_bytes(model.tables()[t], tables[t])) << "table " << t;
  }
}

TEST(EmbeddingSetTest, TablesReadAfterProviderServingAreTheEmbeddingSet) {
  // A model serving through a provider never reads its own tables; the
  // first read afterwards draws them, and they must be exactly the set an
  // eagerly built model would hold.
  const DatasetSpec spec = DatasetSpec::criteo_kaggle_like(2000);
  DlrmModel model(spec, {}, 31);
  std::size_t provided = 0;
  model.set_lookup_provider([&](std::size_t, std::span<const std::uint32_t>,
                                Matrix& out) {
    std::ranges::fill(out.flat(), 0.125f);
    ++provided;
  });
  const SyntheticClickDataset data(spec, 5);
  const SampleBatch batch = data.make_batch(32, 0);
  std::vector<float> probabilities(batch.batch_size());
  model.predict(batch, probabilities);
  EXPECT_EQ(provided, spec.num_tables());
  EXPECT_EQ(model.num_tables(), spec.num_tables());

  const std::vector<EmbeddingTable> tables = make_embedding_set(spec, 31);
  ASSERT_EQ(model.tables().size(), tables.size());
  for (std::size_t t = 0; t < tables.size(); ++t) {
    EXPECT_TRUE(same_bytes(model.tables()[t], tables[t])) << "table " << t;
  }

  // Without the provider, lookups read those same rows.
  model.set_lookup_provider(nullptr);
  Matrix got(batch.batch_size(), spec.embedding_dim);
  Matrix want(batch.batch_size(), spec.embedding_dim);
  for (std::size_t t = 0; t < tables.size(); ++t) {
    model.lookup_table(t, batch.indices[t], got);
    tables[t].lookup(batch.indices[t], want);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0)
        << "table " << t;
  }
}

TEST(EmbeddingSetTest, UnaddressableTableThrowsInsteadOfTerminating) {
  // A failing task must surface as the caller's exception, not escape a
  // pool worker (std::terminate) or hand back a wrapped, undersized table.
  DatasetSpec spec = DatasetSpec::small_training_proxy(2, 16);
  spec.tables[1].cardinality = std::size_t{1} << 62;
  EXPECT_THROW(make_embedding_set(spec, 3), Error);
}

TEST(DlrmModelTest, TrainingReducesLossAndLearns) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(6, 8);
  const SyntheticClickDataset data(spec, 21);
  DlrmConfig config;
  config.bottom_hidden = {16};
  config.top_hidden = {16};
  config.learning_rate = 0.1f;
  DlrmModel model(spec, config, 33);

  const LossResult before = model.evaluate_stream(data, 256, 4);
  const int iters = 300;
  for (int i = 0; i < iters; ++i) {
    const SampleBatch batch = data.make_batch(128, static_cast<std::uint64_t>(i));
    (void)model.train_step(batch);
  }
  const LossResult eval = model.evaluate_stream(data, 256, 4);
  // Held-out loss must fall markedly (per-batch train loss is too noisy
  // to compare windows directly at this scale).
  EXPECT_LT(eval.loss, before.loss * 0.92);
  EXPECT_GT(eval.accuracy, 0.6);  // clearly better than chance
}

TEST(DlrmModelTest, TrainsAndServesProbabilities) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(4, 8);
  const SyntheticClickDataset data(spec, 77);
  const SampleBatch batch = data.make_batch(32, 0);
  DlrmModel model(spec, DlrmConfig{}, 123);
  // Losses finite and improving over a few steps (sanity, not accuracy).
  const LossResult first = model.train_step(batch);
  ASSERT_TRUE(std::isfinite(first.loss));
  LossResult last = first;
  for (int i = 0; i < 20; ++i) last = model.train_step(batch);
  EXPECT_LT(last.loss, first.loss);

  std::vector<float> probs(batch.batch_size());
  model.predict(batch, probs);
  for (const float p : probs) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(DlrmModelTest, DeterministicTraining) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(4, 8);
  const SyntheticClickDataset data(spec, 5);
  DlrmConfig config;
  config.bottom_hidden = {8};
  config.top_hidden = {8};

  DlrmModel a(spec, config, 1);
  DlrmModel b(spec, config, 1);
  for (int i = 0; i < 10; ++i) {
    const SampleBatch batch = data.make_batch(64, static_cast<std::uint64_t>(i));
    const LossResult ra = a.train_step(batch);
    const LossResult rb = b.train_step(batch);
    ASSERT_DOUBLE_EQ(ra.loss, rb.loss);
  }
}

}  // namespace
}  // namespace dlcomp
