#include "dlrm/interaction.hpp"

#include <vector>

#include "common/error.hpp"

namespace dlcomp {

namespace {

/// Gathers the F+1 input row pointers (z0 first, then embeddings) for one
/// batch element.
void collect_rows(const Matrix& z0, std::span<const Matrix> emb,
                  std::size_t b, std::vector<const float*>& rows) {
  rows.clear();
  rows.push_back(z0.data() + b * z0.cols());
  for (const auto& e : emb) {
    rows.push_back(e.data() + b * e.cols());
  }
}

}  // namespace

void DotInteraction::forward(const Matrix& z0, std::span<const Matrix> emb,
                             Matrix& out) {
  const std::size_t batch = z0.rows();
  const std::size_t dim = z0.cols();
  for (const auto& e : emb) {
    DLCOMP_CHECK(e.rows() == batch && e.cols() == dim);
  }
  const std::size_t width = output_dim(emb.size(), dim);
  DLCOMP_CHECK(out.rows() == batch && out.cols() == width);

  std::vector<const float*> rows;
  rows.reserve(emb.size() + 1);
  for (std::size_t b = 0; b < batch; ++b) {
    collect_rows(z0, emb, b, rows);
    float* dst = out.data() + b * width;
    // Dense passthrough.
    for (std::size_t i = 0; i < dim; ++i) dst[i] = rows[0][i];
    // Upper-triangle pairwise dots.
    std::size_t k = dim;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = i + 1; j < rows.size(); ++j) {
        float acc = 0.0f;
        for (std::size_t d = 0; d < dim; ++d) acc += rows[i][d] * rows[j][d];
        dst[k++] = acc;
      }
    }
  }
}

void DotInteraction::backward(const Matrix& z0, std::span<const Matrix> emb,
                              const Matrix& dout, Matrix& dz0,
                              std::span<Matrix> demb) {
  const std::size_t batch = z0.rows();
  const std::size_t dim = z0.cols();
  const std::size_t width = output_dim(emb.size(), dim);
  DLCOMP_CHECK(dout.rows() == batch && dout.cols() == width);
  DLCOMP_CHECK(dz0.rows() == batch && dz0.cols() == dim);
  DLCOMP_CHECK(demb.size() == emb.size());
  for (auto& d : demb) {
    DLCOMP_CHECK(d.rows() == batch && d.cols() == dim);
    d.zero();
  }
  dz0.zero();

  std::vector<const float*> rows;
  std::vector<float*> grad_rows;
  rows.reserve(emb.size() + 1);
  grad_rows.reserve(emb.size() + 1);
  for (std::size_t b = 0; b < batch; ++b) {
    collect_rows(z0, emb, b, rows);
    grad_rows.clear();
    grad_rows.push_back(dz0.data() + b * dim);
    for (auto& d : demb) grad_rows.push_back(d.data() + b * dim);

    const float* g = dout.data() + b * width;
    // Dense passthrough gradient.
    for (std::size_t i = 0; i < dim; ++i) grad_rows[0][i] += g[i];
    // d<v_i, v_j>/dv_i = v_j and vice versa.
    std::size_t k = dim;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = i + 1; j < rows.size(); ++j) {
        const float gk = g[k++];
        if (gk == 0.0f) continue;
        for (std::size_t d = 0; d < dim; ++d) {
          grad_rows[i][d] += gk * rows[j][d];
          grad_rows[j][d] += gk * rows[i][d];
        }
      }
    }
  }
}

}  // namespace dlcomp
