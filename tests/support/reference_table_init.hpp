#pragma once

/// \file reference_table_init.hpp
/// The per-element embedding-table draw that EmbeddingTable::init_from_spec
/// ran before the bulk Gaussian draw (Rng::fill_normal), preserved as the
/// ground truth for it: under every SIMD tier, make_embedding_set must
/// produce these bytes exactly. Test-only, like reference_kernels.hpp.

#include <cstddef>

#include "common/rng.hpp"
#include "data/dataset_spec.hpp"
#include "tensor/matrix.hpp"

namespace dlcomp::reference {

/// Weights of a table drawn from `spec` one element at a time: every
/// Gaussian value is `float(rng.normal(0, scale))`, and a clustered row is
/// `next_below(clusters)` followed by its per-element jitter.
[[nodiscard]] Matrix init_table_from_spec(const TableSpec& spec,
                                          std::size_t dim, Rng& rng);

}  // namespace dlcomp::reference
