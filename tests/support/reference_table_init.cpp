#include "support/reference_table_init.hpp"

namespace dlcomp::reference {

Matrix init_table_from_spec(const TableSpec& spec, std::size_t dim,
                            Rng& rng) {
  Matrix weights(spec.cardinality, dim);

  auto draw = [&](Rng& source) {
    return spec.value_dist == ValueDist::kGaussian
               ? static_cast<float>(source.normal(0.0, spec.value_scale))
               : source.uniform_float(-spec.value_scale, spec.value_scale);
  };

  if (spec.value_clusters == 0) {
    for (auto& v : weights.flat()) v = draw(rng);
    return weights;
  }

  Matrix centroids(spec.value_clusters, dim);
  for (auto& v : centroids.flat()) v = draw(rng);

  for (std::size_t r = 0; r < spec.cardinality; ++r) {
    const std::size_t c =
        static_cast<std::size_t>(rng.next_below(spec.value_clusters));
    const auto centroid = centroids.row(c);
    auto row = weights.row(r);
    for (std::size_t d = 0; d < dim; ++d) {
      row[d] = centroid[d] +
               static_cast<float>(rng.normal(0.0, spec.cluster_jitter));
    }
  }
  return weights;
}

}  // namespace dlcomp::reference
