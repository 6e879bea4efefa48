#include "core/offline_analyzer.hpp"

#include <exception>
#include <unordered_map>

#include "common/error.hpp"
#include "compress/cusz_like.hpp"
#include "compress/quantizer.hpp"
#include "compress/vector_lz.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp {

namespace {

/// Shannon entropy (bits/symbol) of an int32 code sequence.
double code_entropy_bits(std::span<const std::int32_t> codes) {
  std::unordered_map<std::int32_t, std::uint64_t> histogram;
  histogram.reserve(1024);
  for (const auto c : codes) ++histogram[c];
  std::vector<std::uint64_t> freqs;
  freqs.reserve(histogram.size());
  for (const auto& [sym, f] : histogram) freqs.push_back(f);
  return entropy_bits(freqs);
}

}  // namespace

std::vector<double> AnalysisReport::table_error_bounds() const {
  std::vector<double> ebs(tables.size(), config.eb_config.global_eb);
  for (const auto& t : tables) ebs.at(t.table_id) = t.assigned_eb;
  return ebs;
}

std::vector<HybridChoice> AnalysisReport::table_choices() const {
  std::vector<HybridChoice> choices(tables.size(), HybridChoice::kAuto);
  for (const auto& t : tables) {
    const auto& name = t.selection.best().codec;
    if (name == "vector-lz") {
      choices.at(t.table_id) = HybridChoice::kVectorLz;
    } else if (name == "huffman") {
      choices.at(t.table_id) = HybridChoice::kHuffman;
    }
  }
  return choices;
}

AnalysisReport OfflineAnalyzer::analyze(
    const BatchSource& dataset,
    std::span<const EmbeddingTable> tables) const {
  const DatasetSpec& spec = dataset.spec();
  DLCOMP_CHECK_MSG(tables.size() == spec.num_tables(),
                   "embedding set does not match dataset spec");
  DLCOMP_CHECK(config_.sample_batches > 0);

  const std::size_t batch_size =
      config_.batch_size > 0 ? config_.batch_size : spec.default_batch;
  const std::size_t dim = spec.embedding_dim;

  // Every table samples the same batches: make them once.
  std::vector<SampleBatch> batches;
  batches.reserve(config_.sample_batches);
  for (std::size_t s = 0; s < config_.sample_batches; ++s) {
    batches.push_back(dataset.make_batch(batch_size, s));
  }

  const CompressorSelector selector(config_.selector);

  const auto analyze_table = [&](std::size_t t) {
    TableAnalysis analysis;
    analysis.table_id = t;

    // Gather the sampled lookups for this table across sample batches.
    std::vector<float> sample;
    sample.reserve(config_.sample_batches * batch_size * dim);
    Matrix lookup(batch_size, dim);
    for (const SampleBatch& batch : batches) {
      tables[t].lookup(batch.indices[t], lookup);
      sample.insert(sample.end(), lookup.flat().begin(), lookup.flat().end());
    }

    // Homogenization Index at the sampling error bound, over one batch
    // (the paper's Tables III/IV report per-batch pattern counts).
    analysis.homo = compute_homo_index(
        std::span<const float>(sample.data(), batch_size * dim), dim,
        config_.sampling_eb);
    analysis.eb_class = classify_table(analysis.homo, config_.thresholds);
    analysis.assigned_eb = config_.eb_config.eb_for(analysis.eb_class);

    // Value distribution characterization (Table I / Fig. 13): uniform
    // distributions have excess kurtosis ~= -1.2, Gaussian ~= 0.
    analysis.value_summary = summarize(sample);
    analysis.gaussian_values = analysis.value_summary.excess_kurtosis > -0.6;

    // False-prediction characterization: Lorenzo residual codes carrying
    // more entropy than direct quantization codes means prediction hurts.
    CompressParams probe;
    probe.error_bound = config_.sampling_eb;
    probe.vector_dim = dim;
    {
      std::vector<std::int32_t> direct(sample.size());
      quantize(sample, config_.sampling_eb, direct);
      analysis.direct_entropy_bits = code_entropy_bits(direct);
      const auto lorenzo = CuszLikeCompressor::prediction_codes(sample, probe);
      analysis.lorenzo_entropy_bits = code_entropy_bits(lorenzo);
      analysis.false_prediction =
          analysis.lorenzo_entropy_bits > analysis.direct_entropy_bits;
    }

    // Algorithm 2: evaluate candidates at the *assigned* error bound.
    CompressParams select_params = probe;
    select_params.error_bound = analysis.assigned_eb;
    analysis.selection =
        selector.select(sample, select_params, config_.candidates);
    analysis.lz_matches = VectorLzCompressor::count_matches(sample, select_params);
    return analysis;
  };

  // Tables are independent: analyse them on a pool local to this call.
  // Each result lands in its own slot, so the report does not depend on
  // the thread count. Failures are rethrown in table order once the pool
  // has drained; the destructor joins the workers before returning, so
  // callers may fork right after.
  AnalysisReport report;
  report.config = config_;
  report.tables.resize(spec.num_tables());
  std::vector<std::exception_ptr> errors(spec.num_tables());
  {
    ThreadPool pool(0);
    for (std::size_t t = 0; t < spec.num_tables(); ++t) {
      pool.submit([&, t] {
        try {
          report.tables[t] = analyze_table(t);
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
  return report;
}

}  // namespace dlcomp
