#include "core/homo_index.hpp"

#include <vector>

#include "common/error.hpp"
#include "compress/kernels.hpp"
#include "compress/quantizer.hpp"

namespace dlcomp {

HomoIndexResult compute_homo_index(std::span<const float> values,
                                   std::size_t dim, double eb) {
  std::vector<std::uint32_t> symbols(values.size());
  kernels::quantize_to_symbols(values, eb, symbols, nullptr);
  return compute_homo_index(values, symbols, dim);
}

HomoIndexResult compute_homo_index(std::span<const float> values,
                                   std::span<const std::uint32_t> symbols,
                                   std::size_t dim) {
  DLCOMP_CHECK(dim > 0);
  DLCOMP_CHECK_MSG(values.size() >= dim,
                   "need at least one full vector to compute the index");
  DLCOMP_CHECK(symbols.size() == values.size());

  HomoIndexResult result;
  result.original_patterns = count_unique_vectors(values, dim);
  result.quantized_patterns = count_unique_vectors(symbols, dim);

  const auto orig = static_cast<double>(result.original_patterns);
  const auto quant = static_cast<double>(result.quantized_patterns);
  result.homo_index = orig > 0.0 ? (orig - quant) / orig : 0.0;
  result.pattern_retention = orig > 0.0 ? quant / orig : 1.0;
  return result;
}

}  // namespace dlcomp
