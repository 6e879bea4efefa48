#pragma once

/// \file embedding_table.hpp
/// Embedding table with gather lookup and sparse SGD update -- the
/// model-parallel half of the DLRM substrate. Initialization follows the
/// TableSpec value distribution so synthetic tables exhibit the
/// Gaussian/uniform value spreads the paper analyzes (Sec. III-B (3)).

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset_spec.hpp"
#include "tensor/matrix.hpp"

namespace dlcomp {

class EmbeddingTable {
 public:
  EmbeddingTable(std::size_t rows, std::size_t dim)
      : weights_(rows, dim) {}

  /// Builds a table initialized per the spec's value distribution.
  static EmbeddingTable init_from_spec(const TableSpec& spec, std::size_t dim,
                                       Rng& rng);

  [[nodiscard]] std::size_t rows() const noexcept { return weights_.rows(); }
  [[nodiscard]] std::size_t dim() const noexcept { return weights_.cols(); }

  [[nodiscard]] Matrix& weights() noexcept { return weights_; }
  [[nodiscard]] const Matrix& weights() const noexcept { return weights_; }

  /// Gathers rows for `indices` into `out` (batch x dim).
  void lookup(std::span<const std::uint32_t> indices, Matrix& out) const;

  /// Sparse SGD: weights[idx] -= lr * grad_row, accumulating duplicate
  /// indices (scatter-add semantics, like a dense gradient would).
  void apply_gradients(std::span<const std::uint32_t> indices,
                       const Matrix& grads, float lr);

 private:
  Matrix weights_;
};

/// Builds the table set for a dataset spec; table t is drawn by
/// init_from_spec from `Rng(seed).fork({0xE0, t})`. DlrmModel builds its
/// tables here too, so analyses over a standalone set match the model's.
///
/// Tables are allocated and drawn in parallel, one task per table, on a
/// pool that is joined before the call returns (callers may fork right
/// after); the bytes do not depend on the thread count. A failure is
/// rethrown in table order.
///
/// With `world` > 1 only the tables this rank owns (t % world == rank)
/// are drawn. The others keep their shapes but stay zero, for callers
/// that overwrite peer-owned tables before reading them.
std::vector<EmbeddingTable> make_embedding_set(const DatasetSpec& spec,
                                               std::uint64_t seed,
                                               std::size_t rank = 0,
                                               std::size_t world = 1);

}  // namespace dlcomp
