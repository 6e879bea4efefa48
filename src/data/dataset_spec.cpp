#include "data/dataset_spec.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/error.hpp"

namespace dlcomp {

namespace {

/// Published Criteo Kaggle categorical cardinalities (26 features).
constexpr std::array<std::size_t, 26> kKaggleCardinalities = {
    1460,    583,     10131227, 2202608, 305,    24,     12517, 633,
    3,       93145,   5683,     8351593, 3194,   27,     14992, 5461306,
    10,      5652,    2173,     4,       7046547, 18,    15,    286181,
    105,     142572};

/// Published Criteo Terabyte categorical cardinalities (26 features).
constexpr std::array<std::size_t, 26> kTerabyteCardinalities = {
    227605432, 39060,   17295,     7424,     20265,  3,      7122,  1543,
    63,        130229467, 3067956, 405282,   10,     2209,   11938, 155,
    4,         976,     14,        292775614, 40790948, 187188510, 590152,
    12973,     108,     36};

/// Query-skew assignment. Small-cardinality tables and a hand-picked set
/// of hot tables are strongly Zipfian (the paper's "unbalanced queries");
/// the rest are mildly skewed. The assignment yields the paper's spread
/// of Homogenization Index values across tables (Tables III/IV).
double zipf_for(std::size_t table_id, std::size_t cardinality) {
  // Tiny tables are effectively always-hot.
  if (cardinality <= 32) return 1.2;
  // Deterministic per-table variety spanning [0.55, 1.55].
  static constexpr std::array<double, 13> kPattern = {
      1.50, 1.30, 0.60, 0.85, 1.15, 0.95, 0.70, 1.40, 1.05, 0.55, 0.75, 0.65,
      1.25};
  return kPattern[table_id % kPattern.size()];
}

/// Value-distribution assignment: heavily skewed tables train into
/// concentrated (Gaussian-looking) value sets; weakly skewed ones stay
/// close to their uniform initialization (paper Sec. III-B (3)).
ValueDist dist_for(double zipf_exponent) {
  return zipf_exponent >= 1.0 ? ValueDist::kGaussian : ValueDist::kUniform;
}

/// Homogenization level per table: 0 = none (i.i.d. rows, Homo Index ~0),
/// 1 = moderate clustering, 2 = violent clustering. The mix mirrors the
/// paper's Table II spread of L/M/S classes across the 26 tables, and is
/// aligned with the skew assignment: the big low-skew tables stay
/// unclustered (no repeats, no collapse -> the entropy coder's domain),
/// hot tables either repeat via queries (LZ's domain, retention ~1 like
/// the paper's Kaggle tables 0/1) or collapse via clustering.
int homo_level_for(std::size_t table_id, std::size_t cardinality) {
  // Tiny tables cannot homogenize meaningfully (too few distinct rows);
  // leave them unclustered.
  if (cardinality <= 64) return 0;
  static constexpr std::array<int, 26> kPattern = {
      0, 0, 0, 1, 2, 0, 1, 2, 0, 0, 1, 0, 2, 0, 1, 0, 0,
      2, 1, 0, 2, 0, 0, 0, 2, 2};
  return kPattern[table_id % kPattern.size()];
}

std::size_t clamp_clusters(std::size_t value, std::size_t lo, std::size_t hi) {
  return std::min(hi, std::max(lo, value));
}

DatasetSpec build(std::string name, std::span<const std::size_t> cards,
                  std::size_t cap, std::size_t dim, std::size_t batch) {
  DLCOMP_CHECK(cap >= 2);
  DatasetSpec spec;
  spec.name = std::move(name);
  spec.embedding_dim = dim;
  spec.default_batch = batch;
  spec.tables.reserve(cards.size());
  for (std::size_t t = 0; t < cards.size(); ++t) {
    TableSpec table;
    table.cardinality = std::min(cards[t], cap);
    table.zipf_exponent = zipf_for(t, table.cardinality);
    table.value_dist = dist_for(table.zipf_exponent);
    table.value_scale = table.value_dist == ValueDist::kGaussian ? 0.10f : 0.25f;
    // A couple of large low-skew tables carry concentrated Gaussian
    // values: the paper's Fig. 13 "EMB Table 1" archetype, where lookups
    // rarely repeat but the tight value distribution makes the entropy
    // coder shine.
    if (t == 9 || t == 23) {
      table.value_dist = ValueDist::kGaussian;
      table.value_scale = 0.05f;
    }
    switch (homo_level_for(t, table.cardinality)) {
      case 1:
        table.value_clusters = clamp_clusters(table.cardinality / 8, 8, 192);
        break;
      case 2:
        table.value_clusters = clamp_clusters(table.cardinality / 32, 4, 48);
        break;
      default:
        table.value_clusters = 0;
        break;
    }
    spec.tables.push_back(table);
  }
  return spec;
}

}  // namespace

DatasetSpec DatasetSpec::criteo_kaggle_like(std::size_t cardinality_cap) {
  return build("criteo-kaggle-like", kKaggleCardinalities, cardinality_cap,
               /*dim=*/32, /*batch=*/128);
}

DatasetSpec DatasetSpec::criteo_terabyte_like(std::size_t cardinality_cap) {
  return build("criteo-terabyte-like", kTerabyteCardinalities, cardinality_cap,
               /*dim=*/64, /*batch=*/2048);
}

DatasetSpec DatasetSpec::small_training_proxy(std::size_t num_tables,
                                              std::size_t embedding_dim) {
  DLCOMP_CHECK(num_tables > 0 && num_tables <= 26);
  DatasetSpec spec = criteo_kaggle_like(/*cardinality_cap=*/5000);
  spec.name = "small-training-proxy";
  spec.embedding_dim = embedding_dim;
  spec.default_batch = 128;
  spec.tables.resize(num_tables);
  return spec;
}

}  // namespace dlcomp
