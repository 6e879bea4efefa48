#pragma once

/// \file dataset_spec.hpp
/// Shapes of the synthetic Criteo-like workloads. Both real datasets have
/// 13 continuous and 26 categorical features; the per-table cardinalities
/// below follow the published datasets (capped for memory, as DLRM's own
/// max-ind-range flag does), and each table carries a query-skew exponent
/// and an embedding value distribution so the generator reproduces the
/// data characteristics the paper's compressor exploits:
///   - high query skew  -> repeated vectors in a batch (homogenization,
///     vector-LZ matches; paper Sec. III-B (2)),
///   - Gaussian vs uniform value spread -> entropy differences that favor
///     the Huffman side (paper Sec. III-B (3), Fig. 13).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dlcomp {

/// Embedding value distribution of a table.
enum class ValueDist : std::uint8_t { kGaussian, kUniform };

struct TableSpec {
  std::size_t cardinality = 0;   ///< number of embedding rows
  double zipf_exponent = 0.0;    ///< query skew; 0 = uniform queries
  ValueDist value_dist = ValueDist::kGaussian;
  float value_scale = 0.1f;      ///< stddev (Gaussian) or half-range (uniform)

  /// Cluster structure of the embedding values. Trained tables contain
  /// groups of semantically near-duplicate rows; quantization collapses
  /// such groups into identical vectors -- the paper's Vector
  /// Homogenization. 0 disables clustering (fully i.i.d. rows, no
  /// collapse possible, Homo Index ~ 0).
  std::size_t value_clusters = 0;
  /// Jitter stddev of a row around its cluster centroid; far below the
  /// quantization bin so cluster members collapse under sampling bounds.
  float cluster_jitter = 3e-4f;
};

struct DatasetSpec {
  std::string name;
  std::size_t num_dense = 13;
  std::size_t embedding_dim = 32;
  std::size_t default_batch = 128;
  std::vector<TableSpec> tables;

  [[nodiscard]] std::size_t num_tables() const noexcept { return tables.size(); }

  /// Criteo-Kaggle-shaped workload: 26 tables, dim 32, batch 128
  /// (the paper's Kaggle settings). `cardinality_cap` bounds table rows
  /// (the three >1M tables are capped, like DLRM's --max-ind-range).
  static DatasetSpec criteo_kaggle_like(std::size_t cardinality_cap = 100000);

  /// Criteo-Terabyte-shaped workload: 26 tables, dim 64, batch 2048.
  static DatasetSpec criteo_terabyte_like(std::size_t cardinality_cap = 100000);

  /// Down-scaled variant for fast training experiments: same table count
  /// and relative shapes, smaller dims/cardinalities. Used by the
  /// accuracy benches so they finish in seconds.
  static DatasetSpec small_training_proxy(std::size_t num_tables = 26,
                                          std::size_t embedding_dim = 16);
};

}  // namespace dlcomp
