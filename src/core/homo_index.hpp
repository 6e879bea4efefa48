#pragma once

/// \file homo_index.hpp
/// Homogenization Index (paper Eq. 1): quantifies how many distinct
/// embedding vectors collapse into identical ones under error-bounded
/// quantization. eta = (N_original - N_quantized) / N_original, where the
/// N are unique-vector counts in a sampled batch; 0 means no collapse,
/// 1 means every vector collapsed into one.
///
/// Note on the paper's tables: Tables III/IV list N_quantized/N_original
/// (so "1" there means *no* homogenization). We expose that quantity as
/// `pattern_retention` and keep `homo_index` faithful to Eq. (1); the
/// table-reproduction benches print retention to match the paper's
/// columns. See DESIGN.md.

#include <cstddef>
#include <cstdint>
#include <span>

namespace dlcomp {

struct HomoIndexResult {
  std::size_t original_patterns = 0;   ///< unique vectors before quantization
  std::size_t quantized_patterns = 0;  ///< unique vectors after quantization
  double homo_index = 0.0;             ///< Eq. (1)
  double pattern_retention = 1.0;      ///< N_quant / N_orig (paper's column)
};

/// Computes the index over a batch of embedding vectors (`values` is
/// batch*dim floats) at absolute error bound `eb`.
HomoIndexResult compute_homo_index(std::span<const float> values,
                                   std::size_t dim, double eb);

/// The same index from a quantization already in hand: `symbols` are the
/// zigzag quantization symbols of `values` at the bound
/// (kernels::quantize_to_symbols), e.g. the prefix of a larger sample's.
HomoIndexResult compute_homo_index(std::span<const float> values,
                                   std::span<const std::uint32_t> symbols,
                                   std::size_t dim);

}  // namespace dlcomp
