#pragma once

/// \file shard_reader.hpp
/// Reading `.dlshard` datasets back into training batches.
///
/// `ShardedDatasetReader` opens a directory of shards, scans the headers
/// (cheap: 24 bytes each), and serves deterministic random-access batches
/// as a `BatchSource` -- so the hybrid-parallel trainer, the offline
/// analyzer and the serving stack all accept real data behind the same
/// interface as the synthetic generator. It is the only way shards are
/// read. Shard payloads are mmap'ed lazily on first touch (the OS pages
/// data in and shares it across rank threads), and each shard's CRCs are
/// verified once, at that first touch.
///
/// Ordering: the *training* stream shuffles at shard granularity -- epoch
/// e visits the training shards in a permutation seeded by (a fixed seed,
/// e), the standard trade-off that preserves sequential IO while
/// decorrelating epochs. The *eval* stream reads a held-out tail of
/// shards in file order (one shard in ten, at least one), so held-out
/// metrics never see training samples; a single-shard directory has no
/// tail to hold out, and its eval stream is the training shard in file
/// order. Batches address samples by a global ordinal
/// (batch_index * batch_size + j), so batch i is identical across runs,
/// ranks and call orders.
///
/// Index mapping: shards store full-width 32-bit hashed categorical ids;
/// the reader folds them into each table's index space with the hashing
/// trick (`id % cardinality` from the DatasetSpec), so one converted
/// dataset serves any cardinality cap.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/batch_source.hpp"
#include "data/shard_format.hpp"

namespace dlcomp {

/// Open-time per-shard inventory (header scan only).
struct ShardInfo {
  std::string path;
  std::uint32_t samples = 0;
  std::uint64_t file_bytes = 0;
  /// Prefix sum of samples in file order.
  std::uint64_t first_sample = 0;
};

class ShardedDatasetReader : public BatchSource {
 public:
  /// Opens `directory`, scanning every `*.dlshard` header. Throws Error
  /// when the directory holds no usable shards and FormatError when a
  /// header is malformed or does not match `spec` (num_dense and table
  /// count must agree; cardinalities come from the spec).
  ShardedDatasetReader(DatasetSpec spec, const std::string& directory);
  ~ShardedDatasetReader() override;

  ShardedDatasetReader(const ShardedDatasetReader&) = delete;
  ShardedDatasetReader& operator=(const ShardedDatasetReader&) = delete;

  [[nodiscard]] const DatasetSpec& spec() const noexcept override {
    return spec_;
  }
  /// Training-stream samples per epoch (excludes the eval holdout).
  [[nodiscard]] std::uint64_t num_samples() const noexcept { return train_samples_; }
  /// Held-out evaluation samples (equals num_samples() for a
  /// single-shard directory, which has no tail to hold out).
  [[nodiscard]] std::uint64_t num_eval_samples() const noexcept {
    return eval_order_->prefix.back();
  }
  [[nodiscard]] const std::vector<ShardInfo>& shards() const noexcept {
    return shards_;
  }
  /// Shards in the eval holdout (the file-order tail of shards()).
  [[nodiscard]] std::size_t num_eval_shards() const noexcept {
    return eval_order_ == file_order_ ? 0 : eval_order_->shard_order.size();
  }
  /// Shards skipped at open because they hold zero samples.
  [[nodiscard]] std::size_t empty_shards_skipped() const noexcept {
    return empty_shards_;
  }

  /// Fills `out` with batch `batch_index` of the (shuffled) training
  /// stream, reusing its capacity. Thread-safe; zero-allocation once
  /// capacities have grown to the batch shape (epoch-order construction
  /// is amortized once per epoch). Wraps around epochs indefinitely.
  void fill_batch(std::size_t batch_size, std::uint64_t batch_index,
                  SampleBatch& out) const;

  [[nodiscard]] SampleBatch make_batch(std::size_t batch_size,
                                       std::uint64_t batch_index) const override;
  [[nodiscard]] SampleBatch make_eval_batch(
      std::size_t batch_size, std::uint64_t batch_index) const override;

  /// Capacity-growth events observed while filling caller batches (both
  /// fill paths). Flat in steady state.
  [[nodiscard]] std::uint64_t grow_events() const noexcept {
    return grow_events_.load(std::memory_order_relaxed);
  }

 private:
  struct LoadedShard;
  /// Shard visit order of one pass over a shard set.
  struct EpochOrder {
    std::vector<std::uint32_t> shard_order;
    /// prefix[p] = samples in shard_order[0..p); prefix.back() = total.
    std::vector<std::uint64_t> prefix;
  };

  /// The training shards permuted for `epoch` (cached per reader).
  [[nodiscard]] std::shared_ptr<const EpochOrder> epoch_order(
      std::uint64_t epoch) const;

  [[nodiscard]] const LoadedShard& shard(std::size_t index) const;
  void fill_impl(std::size_t batch_size, std::uint64_t batch_index,
                 SampleBatch& out, bool training) const;

  DatasetSpec spec_;
  std::vector<ShardInfo> shards_;
  std::vector<std::uint32_t> cardinality_;  ///< per table, from the spec
  std::uint64_t train_samples_ = 0;
  std::size_t empty_shards_ = 0;

  struct Slot;
  mutable std::vector<Slot> slots_;  ///< lazy-loaded shard payloads

  std::shared_ptr<const EpochOrder> file_order_;  ///< train shards, file order
  std::shared_ptr<const EpochOrder> eval_order_;  ///< holdout shards, file order
  mutable std::mutex epoch_mutex_;
  mutable std::vector<std::pair<std::uint64_t, std::shared_ptr<const EpochOrder>>>
      epoch_cache_;

  mutable std::atomic<std::uint64_t> grow_events_{0};
};

}  // namespace dlcomp
