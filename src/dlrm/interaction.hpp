#pragma once

/// \file interaction.hpp
/// DLRM's feature interaction. It takes the bottom-MLP output z0 and the F
/// embedding lookups (all batch x dim) -- exactly what the all-to-all
/// delivers, making this the communication-adjacent layer -- and emits
/// every pairwise dot product among the F+1 vectors, z0 concatenated with
/// the flattened upper triangle:
///   out = [ z0 | <v_i, v_j> for 0 <= i < j <= F ],
/// width dim + (F+1)F/2.

#include <span>

#include "tensor/matrix.hpp"

namespace dlcomp {

class DotInteraction {
 public:
  /// Output width for `num_features` embedding inputs of width `dim`.
  static std::size_t output_dim(std::size_t num_features, std::size_t dim) {
    const std::size_t n = num_features + 1;  // embeddings + z0
    return dim + n * (n - 1) / 2;
  }

  /// Forward: fills `out` (batch x output_dim).
  static void forward(const Matrix& z0, std::span<const Matrix> emb,
                      Matrix& out);

  /// Backward: given dOut, fills dz0 and demb[t] (all batch x dim;
  /// overwritten, not accumulated).
  static void backward(const Matrix& z0, std::span<const Matrix> emb,
                       const Matrix& dout, Matrix& dz0,
                       std::span<Matrix> demb);
};

}  // namespace dlcomp
