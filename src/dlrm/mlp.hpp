#pragma once

/// \file mlp.hpp
/// Multi-layer perceptron with manual forward/backward -- the
/// data-parallel half of the DLRM substrate (bottom and top MLPs).
/// Weights are (out x in); hidden layers use ReLU; the output layer is
/// linear (the BCE-with-logits loss applies the sigmoid). Gradients
/// accumulate into dw/db so the distributed trainer can all-reduce them
/// before stepping.

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace dlcomp {

class Mlp {
 public:
  /// dims = {in, hidden..., out}; e.g. {13, 64, 32, 16} for a bottom MLP
  /// projecting 13 dense features to a 16-dim embedding space. Xavier
  /// uniform initialization.
  Mlp(std::span<const std::size_t> dims, Rng& rng);

  [[nodiscard]] std::size_t input_dim() const noexcept { return input_dim_; }
  [[nodiscard]] std::size_t output_dim() const noexcept { return output_dim_; }
  [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }

  /// Forward pass; caches activations for backward. Returns the output
  /// activation (valid until the next forward call).
  const Matrix& forward(const Matrix& x);

  /// Backward from dLoss/dOutput; accumulates weight gradients and
  /// returns dLoss/dInput. Must follow a forward() with matching batch.
  Matrix backward(const Matrix& dy);

  /// SGD update from accumulated gradients, then zeroes them.
  void sgd_step(float lr);

  void zero_grad();

  /// Mutable views over every gradient buffer, in a deterministic order
  /// (for all-reduce). Layout: w0, b0, w1, b1, ...
  [[nodiscard]] std::vector<std::span<float>> grad_views();

  /// Mutable views over parameters, same order as grad_views().
  [[nodiscard]] std::vector<std::span<float>> param_views();

 private:
  struct Layer {
    Matrix w;   // out x in
    std::vector<float> b;
    Matrix dw;
    std::vector<float> db;
  };

  std::size_t input_dim_ = 0;
  std::size_t output_dim_ = 0;
  std::vector<Layer> layers_;

  // Forward cache: inputs_[l] is the input to layer l; outputs_[l] the
  // post-activation output.
  std::vector<Matrix> inputs_;
  std::vector<Matrix> outputs_;
};

}  // namespace dlcomp
