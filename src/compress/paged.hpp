#pragma once

/// \file paged.hpp
/// Paged at-rest storage for embedding-shaped row matrices: the cold tier
/// of the serving stack. Rows are grouped into fixed-size pages (each page
/// covers a contiguous, dim-aligned row range that depends only on the
/// table shape and the configured page size, never on sharding or thread
/// count) and each page is compressed independently through a registry
/// codec, so a single row fault decompresses one page — the serving
/// analogue of the checkpoint subsystem's per-table streams, sized for
/// decompress-on-miss latency instead of whole-snapshot throughput.
///
/// Determinism contract: page boundaries and page stream bytes are a pure
/// function of (rows, params, rows_per_page). A store built over the same
/// matrix yields bitwise-identical reconstructed rows no matter how pages
/// are later distributed across shards, which is what makes the sharded
/// scatter/gather path bitwise comparable to a single whole-table store.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/compressor.hpp"
#include "compress/workspace.hpp"
#include "tensor/matrix.hpp"

namespace dlcomp {

class ThreadPool;

struct PagedStoreConfig {
  /// Registry codec for the page payloads; null stores raw float pages
  /// (the BlockEngine's raw mode: paging and accounting still apply,
  /// load_page is a size-checked copy).
  const Compressor* codec = nullptr;
  CompressParams params;
  /// Rows per page. Smaller pages fault faster but compress worse (the
  /// codec sees fewer vectors per stream); 256 rows x dim 32 = 32 KiB of
  /// float input per page.
  std::size_t rows_per_page = 256;
  /// Optional pool: pages compress in parallel through a BlockEngine at
  /// build time. Null builds serially. Either way the stored bytes are
  /// identical (BlockEngine framing is deterministic and pages are below
  /// its block size, so every page is a plain codec stream).
  ThreadPool* pool = nullptr;
};

/// One row matrix stored as independently compressed pages.
class PagedRowStore {
 public:
  /// Compresses `rows` page by page. With a codec every page is also
  /// decompressed once here to record the reconstruction error actually
  /// served (`max_abs_error()`, 0 for raw pages), so callers can assert
  /// the at-rest bound without re-reading the whole store.
  PagedRowStore(const Matrix& rows, const PagedStoreConfig& config);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t rows_per_page() const noexcept {
    return rows_per_page_;
  }
  [[nodiscard]] std::size_t num_pages() const noexcept {
    return offsets_.size();
  }

  [[nodiscard]] std::size_t page_of(std::size_t row) const noexcept {
    return row / rows_per_page_;
  }
  /// Rows covered by page `p` (the last page may be partial).
  [[nodiscard]] std::size_t page_rows(std::size_t p) const noexcept;
  [[nodiscard]] std::size_t page_first_row(std::size_t p) const noexcept {
    return p * rows_per_page_;
  }

  /// Decompresses page `p` into `out` (exactly page_rows(p) * dim()
  /// floats, row-major). Deterministic: every load of the same page
  /// reconstructs identical bytes.
  void load_page(std::size_t p, std::span<float> out,
                 CompressionWorkspace& ws) const;

  // ---- accounting ---------------------------------------------------
  [[nodiscard]] std::size_t input_bytes() const noexcept {
    return input_bytes_;
  }
  /// Bytes held at rest (compressed streams, or raw copies when no codec).
  [[nodiscard]] std::size_t stored_bytes() const noexcept {
    return buffer_.size();
  }
  [[nodiscard]] double ratio() const noexcept {
    return buffer_.empty() ? 0.0
                           : static_cast<double>(input_bytes_) /
                                 static_cast<double>(buffer_.size());
  }
  /// Largest |original - reconstructed| across every stored element
  /// (0 for raw stores; infinite when any difference is non-finite, e.g.
  /// a page that decodes to NaN).
  [[nodiscard]] double max_abs_error() const noexcept {
    return max_abs_error_;
  }

 private:
  const Compressor* codec_ = nullptr;
  CompressParams params_;
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  std::size_t rows_per_page_ = 0;

  std::vector<std::byte> buffer_;      ///< packed page streams
  std::vector<std::size_t> offsets_;   ///< per page, into buffer_
  std::vector<std::size_t> sizes_;     ///< per page stream size
  std::size_t input_bytes_ = 0;
  double max_abs_error_ = 0.0;
};

}  // namespace dlcomp
