#pragma once

/// \file offline_analyzer.hpp
/// The paper's offline analysis stage (Fig. 3, Algorithms 1 & 2): sample
/// a few iterations' worth of lookups per table, compute the
/// Homogenization Index, classify each table into an error-bound class,
/// characterize its data (Gaussian vs uniform values, false-prediction
/// behaviour -- Table I), and select the best codec per table via the
/// Eq. (2) speedup model.

#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "core/error_bound.hpp"
#include "core/homo_index.hpp"
#include "core/selector.hpp"
#include "core/table_classifier.hpp"
#include "data/batch_source.hpp"
#include "dlrm/embedding_table.hpp"

namespace dlcomp {

struct AnalyzerConfig {
  /// Batches sampled per table (lookups are concatenated).
  std::size_t sample_batches = 4;
  /// Samples per batch; 0 means the dataset spec's default batch size.
  std::size_t batch_size = 0;
  /// Error bound used during sampling (the paper uses 0.01 on Kaggle and
  /// 0.005 on Terabyte for Tables III/IV).
  double sampling_eb = 0.01;

  ClassifierThresholds thresholds;
  ErrorBoundConfig eb_config = ErrorBoundConfig::paper_default();
  SelectorConfig selector;
  /// Candidate codecs for Algorithm 2 (the paper restricts the final pool
  /// to its two encoders).
  std::vector<std::string_view> candidates = {"vector-lz", "huffman"};
};

/// Everything the offline pass learned about one table.
struct TableAnalysis {
  std::size_t table_id = 0;
  HomoIndexResult homo;
  EbClass eb_class = EbClass::kMedium;
  double assigned_eb = 0.0;

  SelectionResult selection;      ///< per-candidate Eq. (2) scores
  std::size_t lz_matches = 0;     ///< vector matches in the sample

  Summary value_summary;          ///< raw lookup value statistics
  bool gaussian_values = false;   ///< Table I "Gaussian Distribution"
  bool false_prediction = false;  ///< Table I "False Prediction"
  double direct_entropy_bits = 0.0;   ///< entropy of direct quant codes
  double lorenzo_entropy_bits = 0.0;  ///< entropy of Lorenzo residual codes
};

struct AnalysisReport {
  AnalyzerConfig config;
  std::vector<TableAnalysis> tables;

  /// Per-table assigned error bounds (index = table id).
  [[nodiscard]] std::vector<double> table_error_bounds() const;

  /// Per-table hybrid codec choices (index = table id).
  [[nodiscard]] std::vector<HybridChoice> table_choices() const;
};

namespace detail {

/// Shannon entropy (bits/symbol) of the int32 codes whose zigzag symbols
/// are `symbols`, bit-identical to counting the codes into an
/// std::unordered_map<std::int32_t, std::uint64_t> (reserve(1024)) and
/// passing its frequencies, in iteration order, to entropy_bits.
[[nodiscard]] double symbol_entropy_bits(
    std::span<const std::uint32_t> symbols);

}  // namespace detail

class OfflineAnalyzer {
 public:
  explicit OfflineAnalyzer(AnalyzerConfig config) : config_(std::move(config)) {}

  /// Analyzes every table: samples lookups, computes metrics, classifies
  /// and selects codecs. `tables` must match dataset.spec(). The sample
  /// batches, then the tables, are made in parallel on a pool that is
  /// joined before returning; the report does not depend on the thread
  /// count, and a failing batch's or table's error (the lowest-indexed
  /// batch's, else the lowest-indexed table's) is rethrown here. Each
  /// table's sample is quantized once per bound: once at sampling_eb for
  /// the Homogenization Index and the direct-code entropy, once at its
  /// assigned bound to size the candidates (see selector.hpp).
  [[nodiscard]] AnalysisReport analyze(
      const BatchSource& dataset,
      std::span<const EmbeddingTable> tables) const;

 private:
  AnalyzerConfig config_;
};

}  // namespace dlcomp
