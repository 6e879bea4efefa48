#include "dlrm/mlp.hpp"

#include <cmath>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace dlcomp {

Mlp::Mlp(std::span<const std::size_t> dims, Rng& rng) {
  DLCOMP_CHECK_MSG(dims.size() >= 2, "MLP needs at least input and output dims");
  input_dim_ = dims.front();
  output_dim_ = dims.back();
  layers_.reserve(dims.size() - 1);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    Layer layer;
    const std::size_t in = dims[l];
    const std::size_t out = dims[l + 1];
    const float bound = std::sqrt(6.0f / static_cast<float>(in + out));
    layer.w = Matrix::rand_uniform(rng, out, in, -bound, bound);
    layer.b.assign(out, 0.0f);
    layer.dw = Matrix(out, in);
    layer.db.assign(out, 0.0f);
    layers_.push_back(std::move(layer));
  }
  inputs_.resize(layers_.size());
  outputs_.resize(layers_.size());
}

const Matrix& Mlp::forward(const Matrix& x) {
  DLCOMP_CHECK_MSG(x.cols() == input_dim_,
                   "MLP input dim " << x.cols() << " != " << input_dim_);
  const Matrix* current = &x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    inputs_[l] = *current;  // cache a copy for the backward pass
    Layer& layer = layers_[l];
    outputs_[l].resize(current->rows(), layer.w.rows());
    matmul_nt(*current, layer.w, outputs_[l]);
    add_bias(outputs_[l], layer.b);
    if (l + 1 < layers_.size()) relu_inplace(outputs_[l]);
    current = &outputs_[l];
  }
  return outputs_.back();
}

Matrix Mlp::backward(const Matrix& dy) {
  DLCOMP_CHECK(!layers_.empty());
  DLCOMP_CHECK_MSG(dy.rows() == outputs_.back().rows() &&
                       dy.cols() == outputs_.back().cols(),
                   "backward shape mismatch");
  Matrix grad = dy;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    if (l + 1 < layers_.size()) {
      // Gradient through the hidden ReLU (output layer is linear).
      relu_bwd(outputs_[l], grad);
    }
    matmul_tn_accum(grad, inputs_[l], layer.dw);
    bias_grad_accum(grad, layer.db);
    Matrix dx(grad.rows(), layer.w.cols());
    matmul_nn(grad, layer.w, dx);
    grad = std::move(dx);
  }
  return grad;
}

void Mlp::sgd_step(float lr) {
  for (auto& layer : layers_) {
    axpy(-lr, layer.dw.flat(), layer.w.flat());
    axpy(-lr, std::span<const float>(layer.db), std::span<float>(layer.b));
  }
  zero_grad();
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) {
    layer.dw.zero();
    for (auto& g : layer.db) g = 0.0f;
  }
}

std::vector<std::span<float>> Mlp::grad_views() {
  std::vector<std::span<float>> views;
  views.reserve(layers_.size() * 2);
  for (auto& layer : layers_) {
    views.push_back(layer.dw.flat());
    views.push_back(layer.db);
  }
  return views;
}

std::vector<std::span<float>> Mlp::param_views() {
  std::vector<std::span<float>> views;
  views.reserve(layers_.size() * 2);
  for (auto& layer : layers_) {
    views.push_back(layer.w.flat());
    views.push_back(layer.b);
  }
  return views;
}

}  // namespace dlcomp
