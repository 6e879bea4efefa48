#pragma once

/// \file batch_source.hpp
/// The mini-batch contract between data sources and the training /
/// analysis / serving stack. Everything that consumes batches (the
/// single-process DlrmModel, the hybrid-parallel trainer, the offline
/// analyzer) takes a `BatchSource`, so synthetic
/// generation and real-dataset shard reading are interchangeable behind
/// one flag.
///
/// Contract: `make_batch` / `make_eval_batch` are const and must be safe
/// to call concurrently from many threads -- the trainer's ranks are
/// threads, and every rank regenerates the same global batch
/// deterministically. Batch `i` must be identical across runs, ranks and
/// call orders for a fixed source.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset_spec.hpp"
#include "tensor/matrix.hpp"

namespace dlcomp {

/// One mini-batch of samples.
struct SampleBatch {
  Matrix dense;                                      ///< B x num_dense
  std::vector<std::vector<std::uint32_t>> indices;   ///< [table][B]
  std::vector<float> labels;                         ///< B, in {0, 1}

  [[nodiscard]] std::size_t batch_size() const noexcept { return labels.size(); }
};

/// Deterministic, thread-safe random-access batch provider.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  [[nodiscard]] virtual const DatasetSpec& spec() const noexcept = 0;

  /// Generates batch number `batch_index` with `batch_size` samples.
  /// Deterministic in (source, batch_index, batch_size); thread-safe.
  [[nodiscard]] virtual SampleBatch make_batch(std::size_t batch_size,
                                               std::uint64_t batch_index) const = 0;

  /// Held-out evaluation batch stream (separate stream from training).
  [[nodiscard]] virtual SampleBatch make_eval_batch(
      std::size_t batch_size, std::uint64_t batch_index) const = 0;
};

}  // namespace dlcomp
