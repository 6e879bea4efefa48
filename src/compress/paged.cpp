#include "compress/paged.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "compress/chunked.hpp"

namespace dlcomp {

PagedRowStore::PagedRowStore(const Matrix& rows, const PagedStoreConfig& config)
    : codec_(config.codec),
      params_(config.params),
      rows_(rows.rows()),
      dim_(rows.cols()),
      rows_per_page_(config.rows_per_page) {
  DLCOMP_CHECK(rows_ > 0 && dim_ > 0);
  DLCOMP_CHECK(rows_per_page_ > 0);
  params_.vector_dim = dim_;

  const std::size_t pages = (rows_ + rows_per_page_ - 1) / rows_per_page_;
  offsets_.reserve(pages);
  sizes_.reserve(pages);
  input_bytes_ = rows_ * dim_ * sizeof(float);

  // One BlockEngine batch over all pages (each page is below the
  // engine's block size, so streams are plain codec streams,
  // byte-identical to a serial Compressor::compress per page; with no
  // codec they are the page's float bytes). With a codec, the recon span
  // makes the engine decode each page and measure its error against the
  // input during the same parallel pass, which is how the store knows
  // the at-rest error it will serve. Raw pages are exact and skip it.
  BlockEngine engine(codec_, config.pool);
  const auto recon = codec_ != nullptr
                         ? std::make_unique_for_overwrite<float[]>(rows_ * dim_)
                         : nullptr;
  engine.compress_begin();
  for (std::size_t p = 0; p < pages; ++p) {
    const std::size_t first = page_first_row(p) * dim_;
    const std::size_t count = page_rows(p) * dim_;
    engine.add_tensor(
        rows.flat().subspan(first, count), params_,
        recon ? std::span<float>(recon.get() + first, count)
              : std::span<float>());
  }
  engine.compress_run();

  std::size_t total = 0;
  for (std::size_t p = 0; p < pages; ++p) total += engine.stream_bytes(p);
  buffer_.reserve(total);
  for (std::size_t p = 0; p < pages; ++p) {
    offsets_.push_back(buffer_.size());
    engine.append_stream(p, buffer_);
    sizes_.push_back(buffer_.size() - offsets_.back());
    max_abs_error_ = std::max(max_abs_error_, engine.max_abs_error(p));
  }
}

std::size_t PagedRowStore::page_rows(std::size_t p) const noexcept {
  const std::size_t first = p * rows_per_page_;
  return std::min(rows_per_page_, rows_ - first);
}

void PagedRowStore::load_page(std::size_t p, std::span<float> out,
                              CompressionWorkspace& ws) const {
  DLCOMP_CHECK(p < num_pages());
  DLCOMP_CHECK(out.size() == page_rows(p) * dim_);
  const std::span<const std::byte> stream{buffer_.data() + offsets_[p],
                                          sizes_[p]};
  (void)blocked_decompress(codec_, stream, out, ws);
}

}  // namespace dlcomp
