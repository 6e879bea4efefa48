#include "core/offline_analyzer.hpp"

#include <exception>
#include <unordered_map>

#include "common/bitstream.hpp"
#include "common/error.hpp"
#include "compress/histogram.hpp"
#include "compress/kernels.hpp"
#include "compress/workspace.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp {

namespace detail {

double symbol_entropy_bits(std::span<const std::uint32_t> symbols) {
  // Dense counts for the small symbols, a map for the rare large ones
  // (as SymbolHistogram); the dense array is thread-local and cleared
  // through the first-seen list, so a call costs O(distinct) beyond the
  // counting pass.
  constexpr std::uint32_t kDense = SymbolHistogram::kDenseLimit;
  thread_local std::vector<std::uint64_t> dense(kDense, 0);
  std::unordered_map<std::uint32_t, std::uint64_t> overflow;
  std::vector<std::uint32_t> first_seen;
  for (const std::uint32_t s : symbols) {
    if (s < kDense) {
      if (dense[s]++ == 0) first_seen.push_back(s);
    } else if (overflow[s]++ == 0) {
      first_seen.push_back(s);
    }
  }

  // entropy_bits sums in the order of a map filled code by code; the
  // same distinct codes inserted in first-seen order build the same map,
  // so the sum, and its bits, are the ones counting into it gave.
  std::unordered_map<std::int32_t, std::uint64_t> histogram;
  histogram.reserve(1024);
  for (const std::uint32_t s : first_seen) {
    std::uint64_t& count = s < kDense ? dense[s] : overflow[s];
    histogram.emplace(zigzag_decode32(s), count);
    count = 0;
  }
  std::vector<std::uint64_t> freqs;
  freqs.reserve(histogram.size());
  for (const auto& [code, f] : histogram) freqs.push_back(f);
  return entropy_bits(freqs);
}

}  // namespace detail

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

  // Tables are independent, and every table samples the same batches:
  // make the batches, then analyse the tables, on a pool local to this
  // call. Each result lands in its own slot, so the report does not
  // depend on the thread count. Failures are rethrown in batch order,
  // then table order, once the pool has drained; the destructor joins
  // the workers before returning, so callers may fork right after.
  ThreadPool pool(0);
  const auto run_all = [&pool](std::size_t count, const auto& task) {
    std::vector<std::exception_ptr> errors(count);
    for (std::size_t i = 0; i < count; ++i) {
      pool.submit([&, i] {
        try {
          task(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  };

  std::vector<SampleBatch> batches(config_.sample_batches);
  run_all(batches.size(), [&](std::size_t s) {
    batches[s] = dataset.make_batch(batch_size, s);
  });

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

    // One quantization at the sampling bound serves the Homogenization
    // Index and the direct-code entropy; the Lorenzo symbols then reuse
    // the buffer. The selector below reuses this workspace after both.
    CompressionWorkspace& ws = thread_local_workspace();
    const std::span<std::uint32_t> symbols = ws.symbols(sample.size());
    kernels::quantize_to_symbols(sample, config_.sampling_eb, symbols, nullptr);

    // Homogenization Index at the sampling error bound, over one batch
    // (the paper's Tables III/IV report per-batch pattern counts): the
    // first batch's codes are the sample codes' prefix.
    const std::size_t first_batch = batch_size * dim;
    analysis.homo = compute_homo_index(
        std::span<const float>(sample.data(), first_batch),
        std::span<const std::uint32_t>(symbols.data(), first_batch), dim);
    analysis.eb_class = classify_table(analysis.homo, config_.thresholds);
    analysis.assigned_eb = config_.eb_config.eb_for(analysis.eb_class);

    // Value distribution characterization (Table I / Fig. 13): uniform
    // distributions have excess kurtosis ~= -1.2, Gaussian ~= 0.
    analysis.value_summary = summarize(sample);
    analysis.gaussian_values = analysis.value_summary.excess_kurtosis > -0.6;

    // False-prediction characterization: Lorenzo residual codes carrying
    // more entropy than direct quantization codes means prediction hurts.
    analysis.direct_entropy_bits = detail::symbol_entropy_bits(symbols);
    kernels::lorenzo_encode_fused(sample, dim, config_.sampling_eb,
                                  ws.recon(sample.size()), symbols, nullptr);
    analysis.lorenzo_entropy_bits = detail::symbol_entropy_bits(symbols);
    analysis.false_prediction =
        analysis.lorenzo_entropy_bits > analysis.direct_entropy_bits;

    // Algorithm 2: evaluate candidates at the *assigned* error bound; the
    // selector's sizing scan also counts the vector matches.
    CompressParams select_params;
    select_params.error_bound = analysis.assigned_eb;
    select_params.vector_dim = dim;
    analysis.selection =
        selector.select(sample, select_params, config_.candidates);
    analysis.lz_matches = analysis.selection.lz_matches;
    return analysis;
  };

  AnalysisReport report;
  report.config = config_;
  report.tables.resize(spec.num_tables());
  run_all(spec.num_tables(),
          [&](std::size_t t) { report.tables[t] = analyze_table(t); });
  return report;
}

}  // namespace dlcomp
