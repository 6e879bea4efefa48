#include "tensor/matrix.hpp"

namespace dlcomp {

Matrix Matrix::randn(Rng& rng, std::size_t rows, std::size_t cols, double mean,
                     double stddev) {
  Matrix m(rows, cols);
  rng.fill_normal(m.data_, mean, stddev);
  return m;
}

Matrix Matrix::rand_uniform(Rng& rng, std::size_t rows, std::size_t cols,
                            float lo, float hi) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.uniform_float(lo, hi);
  return m;
}

}  // namespace dlcomp
