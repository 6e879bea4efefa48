#pragma once

/// \file matrix.hpp
/// Row-major owning float matrix. This is the tensor substrate for the
/// DLRM model: activations are (batch x features) matrices and embedding
/// tables are (rows x dim) matrices. Views are std::span-based; the class
/// follows the rule of zero.

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dlcomp {

class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

  /// Gaussian-initialized matrix (used for weight init and synthetic
  /// embedding tables with "Gaussian" value distribution).
  static Matrix randn(Rng& rng, std::size_t rows, std::size_t cols,
                      double mean, double stddev);

  /// Uniform-initialized matrix over [lo, hi).
  static Matrix rand_uniform(Rng& rng, std::size_t rows, std::size_t cols,
                             float lo, float hi);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  /// Allocated element capacity; resize() within it never reallocates
  /// (the shard reader's grow-event accounting watches this).
  [[nodiscard]] std::size_t capacity() const noexcept { return data_.capacity(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }

  [[nodiscard]] std::span<float> flat() noexcept { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const float> flat() const noexcept {
    return {data_.data(), data_.size()};
  }

  [[nodiscard]] std::span<float> row(std::size_t r) {
    DLCOMP_CHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const {
    DLCOMP_CHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  float& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  void fill(float value) noexcept {
    for (auto& v : data_) v = value;
  }
  void zero() noexcept { fill(0.0f); }

  /// Resizes, discarding contents (all elements zeroed).
  void resize(std::size_t rows, std::size_t cols) {
    const std::size_t size = checked_size(rows, cols);
    rows_ = rows;
    cols_ = cols;
    data_.assign(size, 0.0f);
  }

 private:
  /// rows * cols, or an Error when the shape cannot be addressed: a
  /// wrapped product would allocate too few elements while row() still
  /// admits every r < rows.
  static std::size_t checked_size(std::size_t rows, std::size_t cols) {
    constexpr std::size_t kMaxElements =
        static_cast<std::size_t>(std::numeric_limits<std::ptrdiff_t>::max()) /
        sizeof(float);
    DLCOMP_CHECK_MSG(cols == 0 || rows <= kMaxElements / cols,
                     "matrix shape " << rows << " x " << cols
                                     << " exceeds the addressable size");
    return rows * cols;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace dlcomp
