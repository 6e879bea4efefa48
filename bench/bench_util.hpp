#pragma once

/// \file bench_util.hpp
/// Shared plumbing for the paper-reproduction bench binaries: standard
/// workload construction, sampled lookup batches, paper-value annotation,
/// and environment-variable scaling so the whole suite can run quickly by
/// default and at full fidelity on demand (DLCOMP_BENCH_SCALE=full).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "common/table_printer.hpp"
#include "data/shard_reader.hpp"
#include "data/synthetic.hpp"
#include "dlrm/embedding_table.hpp"
#include "tensor/matrix.hpp"

namespace dlcomp::bench {

/// True when DLCOMP_BENCH_SCALE=full: larger batches / more iterations.
inline bool full_scale() {
  const char* env = std::getenv("DLCOMP_BENCH_SCALE");
  return env != nullptr && std::string(env) == "full";
}

/// Scales an iteration count by the bench mode.
inline std::size_t scaled(std::size_t quick, std::size_t full) {
  return full_scale() ? full : quick;
}

/// Prints the standard bench banner.
inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "=====================================================\n"
            << title << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "mode: " << (full_scale() ? "full" : "quick")
            << "  (set DLCOMP_BENCH_SCALE=full for paper-scale runs)\n"
            << "=====================================================\n";
}

/// A dataset + matching embedding set, the unit every compression bench
/// samples from.
struct Workload {
  DatasetSpec spec;
  SyntheticClickDataset dataset;
  std::vector<EmbeddingTable> tables;

  explicit Workload(DatasetSpec s, std::uint64_t seed = 1234)
      : spec(std::move(s)),
        dataset(spec, seed),
        tables(make_embedding_set(spec, seed)) {}
};

inline Workload kaggle_workload(std::size_t cap = 50000) {
  return Workload(DatasetSpec::criteo_kaggle_like(cap));
}

inline Workload terabyte_workload(std::size_t cap = 50000) {
  return Workload(DatasetSpec::criteo_terabyte_like(cap));
}

/// Samples `batches` lookup batches for one table, concatenated.
inline std::vector<float> sample_table_lookups(const Workload& w,
                                               std::size_t table,
                                               std::size_t batch_size,
                                               std::size_t batches = 1,
                                               std::uint64_t first_batch = 0) {
  std::vector<float> out;
  out.reserve(batches * batch_size * w.spec.embedding_dim);
  Matrix lookup(batch_size, w.spec.embedding_dim);
  for (std::size_t b = 0; b < batches; ++b) {
    const SampleBatch batch = w.dataset.make_batch(batch_size, first_batch + b);
    w.tables[table].lookup(batch.indices[table], lookup);
    out.insert(out.end(), lookup.flat().begin(), lookup.flat().end());
  }
  return out;
}

/// Real-data switch shared by the benches that accept `--data <dir>`:
/// returns a sharded reader over the directory (converted with
/// `dlcomp data convert`), or null when `dir` is empty -- callers fall
/// back to the synthetic generator. The spec still supplies table
/// cardinalities (the hashing trick folds shard ids into them),
/// embedding dims and batch sizes.
inline std::unique_ptr<BatchSource> open_data_source(const std::string& dir,
                                                     DatasetSpec spec) {
  if (dir.empty()) return nullptr;
  auto reader = std::make_unique<ShardedDatasetReader>(std::move(spec), dir);
  std::cout << "real data: " << dir << " (" << reader->num_samples()
            << " samples in " << reader->shards().size() << " shards)\n";
  return reader;
}

/// Formats "measured (paper: X)" annotations.
inline std::string with_paper(double measured, const std::string& paper,
                              int precision = 2) {
  return TablePrinter::num(measured, precision) + " (paper: " + paper + ")";
}

/// `--metrics <path>` support shared by the bench binaries. A `.json`
/// path gets a flat name->value JSON object that `dlcomp obs diff`
/// consumes directly; anything else gets sorted "name value" lines.
/// Written through write_file, so a full disk fails the bench. No-op
/// when `path` is empty.
inline void dump_metrics(const std::string& path,
                         const MetricsSnapshot& snapshot) {
  if (path.empty()) return;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    JsonValue doc = JsonValue::object();
    for (const auto& [name, value] : snapshot.values) {
      doc.set(name, JsonValue(value));
    }
    write_file(path, doc.dump(2) + '\n');
  } else {
    write_file(path, snapshot.to_text());
  }
  std::cout << "metrics written to " << path << " ("
            << snapshot.values.size() << " keys)\n";
}

}  // namespace dlcomp::bench
