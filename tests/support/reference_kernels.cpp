#include "support/reference_kernels.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace dlcomp::reference {

void quantize(std::span<const float> input, double eb,
              std::span<std::int32_t> codes) {
  DLCOMP_CHECK(codes.size() == input.size());
  DLCOMP_CHECK_MSG(eb > 0.0, "quantizer error bound must be positive");
  const double inv = 1.0 / (2.0 * eb);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double scaled = static_cast<double>(input[i]) * inv;
    DLCOMP_CHECK_MSG(
        scaled >= static_cast<double>(std::numeric_limits<std::int32_t>::min()) &&
            scaled <= static_cast<double>(std::numeric_limits<std::int32_t>::max()),
        "quantization code overflow: value " << input[i] << " eb " << eb);
    codes[i] = static_cast<std::int32_t>(std::llround(scaled));
  }
}

void dequantize(std::span<const std::int32_t> codes, double eb,
                std::span<float> output) {
  DLCOMP_CHECK(output.size() == codes.size());
  const double step = 2.0 * eb;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    output[i] = static_cast<float>(static_cast<double>(codes[i]) * step);
  }
}

void lorenzo_encode(std::span<const float> input, std::size_t dim, double eb,
                    std::span<std::int32_t> codes,
                    std::span<float> reconstructed) {
  const double step = 2.0 * eb;
  const std::size_t n = input.size();
  auto recon_at = [&](std::size_t r, std::size_t c) -> double {
    const std::size_t idx = r * dim + c;
    return idx < n ? static_cast<double>(reconstructed[idx]) : 0.0;
  };

  const std::size_t rows = (n + dim - 1) / dim;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      const std::size_t idx = r * dim + c;
      if (idx >= n) break;
      const double west = c > 0 ? recon_at(r, c - 1) : 0.0;
      const double north = r > 0 ? recon_at(r - 1, c) : 0.0;
      const double northwest = (r > 0 && c > 0) ? recon_at(r - 1, c - 1) : 0.0;
      const double pred = west + north - northwest;
      const double residual = static_cast<double>(input[idx]) - pred;
      const auto code = static_cast<std::int32_t>(std::llround(residual / step));
      codes[idx] = code;
      reconstructed[idx] =
          static_cast<float>(pred + static_cast<double>(code) * step);
    }
  }
}

void lorenzo_decode(std::span<const std::int32_t> codes, std::size_t dim,
                    double eb, std::span<float> output) {
  const double step = 2.0 * eb;
  const std::size_t n = output.size();
  auto out_at = [&](std::size_t r, std::size_t c) -> double {
    const std::size_t idx = r * dim + c;
    return idx < n ? static_cast<double>(output[idx]) : 0.0;
  };

  const std::size_t rows = (n + dim - 1) / dim;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      const std::size_t idx = r * dim + c;
      if (idx >= n) break;
      const double west = c > 0 ? out_at(r, c - 1) : 0.0;
      const double north = r > 0 ? out_at(r - 1, c) : 0.0;
      const double northwest = (r > 0 && c > 0) ? out_at(r - 1, c - 1) : 0.0;
      const double pred = west + north - northwest;
      output[idx] =
          static_cast<float>(pred + static_cast<double>(codes[idx]) * step);
    }
  }
}

}  // namespace dlcomp::reference
