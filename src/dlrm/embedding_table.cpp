#include "dlrm/embedding_table.hpp"

#include <cstring>
#include <exception>

#include "common/error.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp {

EmbeddingTable EmbeddingTable::init_from_spec(const TableSpec& spec,
                                              std::size_t dim, Rng& rng) {
  EmbeddingTable table(spec.cardinality, dim);

  auto fill = [&](std::span<float> values) {
    if (spec.value_dist == ValueDist::kGaussian) {
      rng.fill_normal(values, 0.0, spec.value_scale);
    } else {
      for (auto& v : values) {
        v = rng.uniform_float(-spec.value_scale, spec.value_scale);
      }
    }
  };

  if (spec.value_clusters == 0) {
    fill(table.weights_.flat());
    return table;
  }

  // Clustered initialization: rows orbit one of `value_clusters`
  // centroids with tiny jitter, modelling the near-duplicate vectors of
  // trained tables (the Vector Homogenization source).
  Matrix centroids(spec.value_clusters, dim);
  fill(centroids.flat());

  for (std::size_t r = 0; r < spec.cardinality; ++r) {
    const std::size_t c =
        static_cast<std::size_t>(rng.next_below(spec.value_clusters));
    const auto centroid = centroids.row(c);
    auto row = table.weights_.row(r);
    rng.fill_normal(row, 0.0, spec.cluster_jitter);
    for (std::size_t d = 0; d < dim; ++d) row[d] = centroid[d] + row[d];
  }
  return table;
}

void EmbeddingTable::lookup(std::span<const std::uint32_t> indices,
                            Matrix& out) const {
  DLCOMP_CHECK(out.rows() == indices.size() && out.cols() == dim());
  for (std::size_t b = 0; b < indices.size(); ++b) {
    DLCOMP_CHECK_MSG(indices[b] < rows(),
                     "lookup index " << indices[b] << " out of range "
                                     << rows());
    std::memcpy(out.data() + b * dim(), weights_.data() + indices[b] * dim(),
                dim() * sizeof(float));
  }
}

std::vector<EmbeddingTable> make_embedding_set(const DatasetSpec& spec,
                                               std::uint64_t seed,
                                               std::size_t rank,
                                               std::size_t world) {
  DLCOMP_CHECK_MSG(world >= 1 && rank < world,
                   "rank " << rank << " outside world " << world);
  const Rng rng(seed);
  const std::size_t dim = spec.embedding_dim;
  std::vector<EmbeddingTable> tables(spec.num_tables(), EmbeddingTable(0, dim));
  std::vector<std::exception_ptr> errors(spec.num_tables());
  {
    ThreadPool pool(0);
    for (std::size_t t = 0; t < spec.num_tables(); ++t) {
      pool.submit([&, t] {
        try {
          if (t % world == rank) {
            auto rng_t = rng.fork({0xE0, t});
            tables[t] = EmbeddingTable::init_from_spec(spec.tables[t], dim, rng_t);
          } else {
            tables[t] = EmbeddingTable(spec.tables[t].cardinality, dim);
          }
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return tables;
}

void EmbeddingTable::apply_gradients(std::span<const std::uint32_t> indices,
                                     const Matrix& grads, float lr) {
  DLCOMP_CHECK(grads.rows() == indices.size() && grads.cols() == dim());
  for (std::size_t b = 0; b < indices.size(); ++b) {
    DLCOMP_CHECK(indices[b] < rows());
    float* row = weights_.data() + indices[b] * dim();
    const float* grad = grads.data() + b * dim();
    for (std::size_t i = 0; i < dim(); ++i) row[i] -= lr * grad[i];
  }
}

}  // namespace dlcomp
