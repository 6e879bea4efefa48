#pragma once

/// \file shard_store.hpp
/// Sharded embedding tier for the serving path, UPMEM-DLRM shaped: every
/// table's rows are grouped into fixed pages (compress/paged.hpp) and the
/// pages are distributed round-robin across shard groups, the way
/// partitioned lookup units each own a slice of every table. A query's
/// lookups fan out to the owning shards and the partial results merge
/// back into the batch matrix (serve/router.hpp does the scatter/gather).
///
/// Each shard serves its rows from two tiers:
///   - hot: uncompressed rows in a bounded CLOCK cache (hot_cache.hpp),
///     budget split evenly across shards;
///   - cold: compressed pages (the paper's hybrid codec by default),
///     decompressed on miss into a per-shard scratch page, with the
///     faulted rows admitted to the hot tier.
///
/// Bitwise contract: page streams depend only on (table, params, page
/// size) — not the shard count — and page decompression is deterministic,
/// so the values a sharded store serves are bitwise identical to a
/// 1-shard (whole-table) store at the same error bound, and a raw
/// (codec-less) store is bitwise identical to direct EmbeddingTable
/// lookups. tests/test_serving_scale.cpp pins both.
///
/// Thread-safety: shards lock independently (per-shard mutex), so a fleet
/// of engine replicas contends per shard like replicas of a real
/// embedding service would; values stay deterministic under concurrency
/// (hit/miss *counts* are only deterministic single-threaded).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "compress/paged.hpp"
#include "data/dataset_spec.hpp"
#include "dlrm/embedding_table.hpp"
#include "serve/hot_cache.hpp"
#include "tensor/matrix.hpp"

namespace dlcomp {

class Counter;
class ThreadPool;

struct ShardStoreConfig {
  /// Shard groups the pages distribute across. 0 disables the sharded
  /// tier entirely (the engine serves whole tables from model weights).
  std::size_t num_shards = 0;
  /// Rows per compressed page (see PagedStoreConfig::rows_per_page).
  std::size_t rows_per_page = 256;
  /// Total hot-tier budget in bytes, split evenly across shards.
  std::size_t cache_budget_bytes = 4u << 20;
  /// Registry codec for the cold tier; "" stores raw pages.
  std::string codec = "hybrid";
  /// Absolute per-element error bound for the cold tier.
  double error_bound = 0.01;
};

/// Aggregated serving counters across shards (see stats()).
struct ShardStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t pages_loaded = 0;  ///< cold-tier page decompressions
  std::size_t input_bytes = 0;     ///< raw size of all tables
  std::size_t stored_bytes = 0;    ///< cold-tier at-rest size
  std::size_t resident_rows = 0;   ///< rows currently in hot caches
  std::size_t capacity_rows = 0;   ///< hot-tier capacity across shards
  double max_abs_error = 0.0;      ///< at-rest reconstruction error

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
  [[nodiscard]] double ratio() const noexcept {
    return stored_bytes == 0 ? 0.0
                             : static_cast<double>(input_bytes) /
                                   static_cast<double>(stored_bytes);
  }
};

class ShardedEmbeddingStore {
 public:
  /// Builds the paged cold tier from `tables` (one PagedRowStore per
  /// table, pages compressed across `pool` when given) and one hot cache
  /// per shard. `tables` is only read during construction.
  ShardedEmbeddingStore(const DatasetSpec& spec,
                        std::span<const EmbeddingTable> tables,
                        const ShardStoreConfig& config,
                        ThreadPool* pool = nullptr);

  [[nodiscard]] const ShardStoreConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return config_.num_shards;
  }
  [[nodiscard]] std::size_t num_tables() const noexcept {
    return tables_.size();
  }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Owning shard of (table, row): the row's page, round-robin across
  /// shards. Round-robin spreads the Zipf-hot low-id pages instead of
  /// concentrating them on shard 0 the way contiguous ranges would.
  [[nodiscard]] std::size_t shard_of(std::size_t table,
                                     std::uint32_t row) const {
    return tables_[table]->page_of(row) % config_.num_shards;
  }

  /// Resolves one shard's slice of a gather: for each i, row `rows[i]` of
  /// `table` lands in `out.row(positions[i])`. Every requested row must
  /// be owned by `shard`. Takes the shard lock; requests are served in
  /// order (hot probe first, page fault + admit on miss), so a fixed
  /// request sequence gives a fixed hit/miss/eviction sequence.
  void resolve(std::size_t shard, std::size_t table,
               std::span<const std::uint32_t> rows,
               std::span<const std::uint32_t> positions, Matrix& out);

  /// Aggregated counters (locks each shard briefly).
  [[nodiscard]] ShardStoreStats stats() const;

  /// Optional live instruments bumped as lookups resolve (may be null;
  /// must outlive the store). The simulator wires these to the /metrics
  /// registry so a scrape sees cache traffic mid-run.
  void bind_live_counters(Counter* hits, Counter* misses,
                          Counter* pages_loaded) noexcept;

 private:
  struct Shard {
    std::mutex mutex;
    std::unique_ptr<HotRowCache> cache;
    CompressionWorkspace workspace;
    std::vector<float> page_scratch;
    std::uint64_t pages_loaded = 0;
  };

  ShardStoreConfig config_;
  std::size_t dim_ = 0;
  std::vector<std::unique_ptr<PagedRowStore>> tables_;
  std::vector<std::unique_ptr<Shard>> shards_;
  double max_abs_error_ = 0.0;

  Counter* live_hits_ = nullptr;
  Counter* live_misses_ = nullptr;
  Counter* live_pages_ = nullptr;
};

}  // namespace dlcomp
