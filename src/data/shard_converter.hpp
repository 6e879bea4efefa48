#pragma once

/// \file shard_converter.hpp
/// Criteo TSV -> `.dlshard` conversion. The driver reads the log
/// sequentially, groups lines into shard-sized batches, and converts the
/// groups in parallel on the ThreadPool (parse + transform + encode +
/// write per shard is embarrassingly parallel once the lines are
/// grouped). Output is deterministic in the input bytes and
/// samples_per_shard, independent of thread count: shard k always holds
/// the k-th group of well-formed lines, in input order.

#include <cstddef>
#include <cstdint>
#include <string>

#include "data/criteo_tsv.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp {

struct ConvertOptions {
  std::string input_tsv;    ///< path of the raw click log
  std::string output_dir;   ///< created on demand; shards land here
  std::size_t num_dense = 13;
  std::size_t num_cat = 26;
  std::size_t samples_per_shard = 65536;
  std::size_t max_samples = 0;  ///< stop after this many lines; 0 = all
  ThreadPool* pool = nullptr;   ///< null converts serially
};

struct ConvertReport {
  std::size_t samples = 0;          ///< well-formed lines converted
  std::size_t malformed_lines = 0;  ///< skipped (wrong shape / bad fields)
  std::size_t shards = 0;
  std::uint64_t input_bytes = 0;
  std::uint64_t shard_bytes = 0;
  double seconds = 0.0;

  [[nodiscard]] double convert_mb_per_s() const noexcept {
    return seconds > 0.0
               ? static_cast<double>(input_bytes) / seconds / 1e6
               : 0.0;
  }
};

/// Runs the conversion; throws Error when a feature width does not fit
/// the shard header's u16 fields (checked before any line is read), the
/// input cannot be read or a shard cannot be written. Shards are named `shard_NNNNNN.dlshard`
/// (zero-padded, so lexical order is input order).
ConvertReport convert_criteo_tsv(const ConvertOptions& options);

/// Formats the canonical shard filename for index `i`.
std::string shard_filename(std::size_t index);

}  // namespace dlcomp
