#include "serve/shard_store.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "compress/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dlcomp {

namespace {

/// Cache key: tables and rows both fit 32 bits (26 tables, u32 row ids).
std::uint64_t row_key(std::size_t table, std::uint32_t row) {
  return (static_cast<std::uint64_t>(table) << 32) | row;
}

}  // namespace

ShardedEmbeddingStore::ShardedEmbeddingStore(
    const DatasetSpec& spec, std::span<const EmbeddingTable> tables,
    const ShardStoreConfig& config, ThreadPool* pool)
    : config_(config), dim_(spec.embedding_dim) {
  DLCOMP_CHECK(config_.num_shards > 0);
  DLCOMP_CHECK(tables.size() == spec.num_tables());

  PagedStoreConfig page_config;
  page_config.rows_per_page = config_.rows_per_page;
  page_config.pool = pool;
  if (!config_.codec.empty()) {
    page_config.codec = &get_compressor(config_.codec);
    page_config.params.error_bound = config_.error_bound;
    page_config.params.eb_mode = EbMode::kAbsolute;
  }

  tables_.reserve(tables.size());
  for (const EmbeddingTable& table : tables) {
    DLCOMP_CHECK(table.dim() == dim_);
    tables_.push_back(
        std::make_unique<PagedRowStore>(table.weights(), page_config));
    max_abs_error_ = std::max(max_abs_error_, tables_.back()->max_abs_error());
  }

  const std::size_t per_shard_budget =
      config_.cache_budget_bytes / config_.num_shards;
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->cache = std::make_unique<HotRowCache>(per_shard_budget, dim_);
    shard->page_scratch.resize(config_.rows_per_page * dim_);
    shards_.push_back(std::move(shard));
  }
}

void ShardedEmbeddingStore::resolve(std::size_t shard, std::size_t table,
                                    std::span<const std::uint32_t> rows,
                                    std::span<const std::uint32_t> positions,
                                    Matrix& out) {
  DLCOMP_CHECK(shard < shards_.size() && table < tables_.size());
  DLCOMP_CHECK(rows.size() == positions.size());
  if (rows.empty()) return;
  DLCOMP_TRACE_SPAN("serve/shard_resolve");

  const PagedRowStore& store = *tables_[table];
  Shard& sh = *shards_[shard];
  std::lock_guard lock(sh.mutex);

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t faults = 0;
  // The scratch page survives across consecutive misses: Zipf-skewed
  // request runs fault the same page once and read it many times.
  std::size_t scratch_page = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint32_t row = rows[i];
    DLCOMP_CHECK(shard_of(table, row) == shard);
    const std::span<float> dst = out.row(positions[i]);
    if (const float* hot = sh.cache->find(row_key(table, row))) {
      std::memcpy(dst.data(), hot, dim_ * sizeof(float));
      ++hits;
      continue;
    }
    ++misses;
    const std::size_t page = store.page_of(row);
    if (page != scratch_page) {
      const std::size_t count = store.page_rows(page) * dim_;
      store.load_page(page,
                      std::span<float>(sh.page_scratch).subspan(0, count),
                      sh.workspace);
      scratch_page = page;
      ++faults;
    }
    const std::size_t offset = (row - store.page_first_row(page)) * dim_;
    const float* src = sh.page_scratch.data() + offset;
    std::memcpy(dst.data(), src, dim_ * sizeof(float));
    sh.cache->insert(row_key(table, row), {src, dim_});
  }
  sh.pages_loaded += faults;

  if (live_hits_ != nullptr && hits > 0) live_hits_->add(hits);
  if (live_misses_ != nullptr && misses > 0) live_misses_->add(misses);
  if (live_pages_ != nullptr && faults > 0) live_pages_->add(faults);
}

ShardStoreStats ShardedEmbeddingStore::stats() const {
  ShardStoreStats stats;
  stats.max_abs_error = max_abs_error_;
  for (const auto& table : tables_) {
    stats.input_bytes += table->input_bytes();
    stats.stored_bytes += table->stored_bytes();
  }
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    stats.hits += shard->cache->hits();
    stats.misses += shard->cache->misses();
    stats.evictions += shard->cache->evictions();
    stats.pages_loaded += shard->pages_loaded;
    stats.resident_rows += shard->cache->size_rows();
    stats.capacity_rows += shard->cache->capacity_rows();
  }
  return stats;
}

void ShardedEmbeddingStore::bind_live_counters(Counter* hits, Counter* misses,
                                               Counter* pages_loaded) noexcept {
  live_hits_ = hits;
  live_misses_ = misses;
  live_pages_ = pages_loaded;
}

}  // namespace dlcomp
