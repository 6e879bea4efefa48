#include "compress/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/bitstream.hpp"
#include "common/error.hpp"
#include "compress/elementwise_kernel.hpp"
#include "compress/gaussian_kernel.hpp"
#include "compress/kernels_dispatch.hpp"
#include "obs/metrics.hpp"

namespace dlcomp::kernels {

namespace {

using detail::round_code;

/// Throws the overflow error for an input `codes_in_range` rejected. The
/// message's extrema come from a serial pass (NaNs hide from std::min and
/// std::max unless they lead the input), so it reads the same under every
/// ISA tier; the summing probe re-derives the NaN condition (finite floats
/// cannot overflow the double sum). Off the hot path: it only runs on the
/// way to an exception.
[[noreturn]] [[gnu::cold]] void throw_code_overflow(
    std::span<const float> input, double inv, double eb) {
  float lo = input[0];
  float hi = input[0];
  double nan_probe = 0.0;
  for (const float v : input) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    nan_probe += static_cast<double>(v);
  }
  DLCOMP_CHECK_MSG(
      !std::isnan(nan_probe) && detail::extrema_fit_codes(lo, hi, inv),
      "quantization code overflow: range [" << lo << ", " << hi << "] eb "
                                            << eb);
  // codes_in_range and the condition above agree on every input; reaching
  // here would mean they drifted apart.
  throw Error("quantization range check disagrees with its error report");
}

/// The quantize loops' up-front range check: one per-ISA sweep for the
/// extrema and any NaN instead of the reference's per-element branch, so
/// the loops themselves stay branch-free.
void check_code_range(const detail::KernelOps& ops,
                      std::span<const float> input, double inv, double eb) {
  if (!ops.codes_in_range(input.data(), input.size(), inv)) [[unlikely]] {
    throw_code_overflow(input, inv, eb);
  }
}

void accumulate(std::span<const std::uint32_t> symbols,
                SymbolHistogram& hist) {
  hist.reset();
  for (const auto s : symbols) hist.add(s);
}

// ---------------------------------------------------------------------
// Scalar Lorenzo loops (the dispatch baseline; the element-wise loops
// come from elementwise_kernel.hpp).

void scalar_lorenzo_encode(const float* in, std::size_t n, std::size_t dim,
                           double step, float* rc, std::uint32_t* sym) {
  // The explicit `+ 0.0 - 0.0` on the boundary predictors reproduces the
  // reference's west+north-northwest sum with absent neighbors as literal
  // zeros (an IEEE-visible difference for signed zeros), keeping recon
  // streams bit-identical.
  auto emit = [&](std::size_t idx, double pred) {
    const double residual = static_cast<double>(in[idx]) - pred;
    const std::int32_t code = round_code(residual / step);
    sym[idx] = zigzag_encode32(code);
    rc[idx] =
        static_cast<float>(pred + static_cast<double>(code) * step);
  };

  // ---- First row: west-only prediction.
  const std::size_t first_len = std::min(dim, n);
  emit(0, 0.0);
  for (std::size_t c = 1; c < first_len; ++c) {
    emit(c, (static_cast<double>(rc[c - 1]) + 0.0) - 0.0);
  }

  // ---- Remaining rows: full three-neighbor prediction, boundary cases
  // hoisted; the last row may be short, which the row length covers.
  auto emit_mid = [&](std::size_t base, std::size_t c) {
    const double pred = static_cast<double>(rc[base + c - 1]) +
                        static_cast<double>(rc[base + c - dim]) -
                        static_cast<double>(rc[base + c - dim - 1]);
    emit(base + c, pred);
  };
  auto emit_row_start = [&](std::size_t base) {
    emit(base, (0.0 + static_cast<double>(rc[base - dim])) - 0.0);
  };

  const std::size_t rows = (n + dim - 1) / dim;
  const std::size_t full_rows = n / dim;  // rows of exactly dim elements
  std::size_t r = 1;

  // Row pairs, second row lagging kLag columns behind the first: each
  // element still reads only finalized neighbors (so results stay
  // bit-identical to the reference order), but the two rows' serial
  // west-dependency chains become independent, which roughly doubles the
  // ILP through the divide on the critical path.
  constexpr std::size_t kLag = 4;
  if (dim > 2 * kLag) {
    for (; r + 1 < full_rows; r += 2) {
      const std::size_t a = r * dim;        // leading row
      const std::size_t b = (r + 1) * dim;  // lagging row
      emit_row_start(a);
      for (std::size_t c = 1; c < kLag; ++c) emit_mid(a, c);
      emit_mid(a, kLag);
      emit_row_start(b);
      for (std::size_t c = kLag + 1; c < dim; ++c) {
        emit_mid(a, c);
        emit_mid(b, c - kLag);
      }
      for (std::size_t c = dim - kLag; c < dim; ++c) emit_mid(b, c);
    }
  }

  // Leftover rows (odd count, short tail, or tiny dim): one at a time.
  for (; r < rows; ++r) {
    const std::size_t base = r * dim;
    const std::size_t len = std::min(dim, n - base);
    emit_row_start(base);
    for (std::size_t c = 1; c < len; ++c) emit_mid(base, c);
  }
}

void scalar_lorenzo_decode(const std::uint32_t* sym, std::size_t n,
                           std::size_t dim, double step, float* out) {
  auto value = [&](std::size_t idx, double pred) {
    out[idx] = static_cast<float>(
        pred +
        static_cast<double>(zigzag_decode32(sym[idx])) * step);
  };

  const std::size_t first_len = std::min(dim, n);
  value(0, 0.0);
  for (std::size_t c = 1; c < first_len; ++c) {
    value(c, (static_cast<double>(out[c - 1]) + 0.0) - 0.0);
  }

  const std::size_t rows = (n + dim - 1) / dim;
  for (std::size_t r = 1; r < rows; ++r) {
    const std::size_t base = r * dim;
    const std::size_t len = std::min(dim, n - base);
    const float* up = out + base - dim;
    value(base, (0.0 + static_cast<double>(up[0])) - 0.0);
    for (std::size_t c = 1; c < len; ++c) {
      const double pred = static_cast<double>(out[base + c - 1]) +
                          static_cast<double>(up[c]) -
                          static_cast<double>(up[c - 1]);
      value(base + c, pred);
    }
  }
}

// ---------------------------------------------------------------------
// Dispatch: one atomic table pointer, resolved from simd::requested()
// stepped down past variants this binary does not carry. Relaxed loads
// are fine — the table contents are immutable statics and the pointer is
// published before any kernel result escapes a thread.

std::atomic<const detail::KernelOps*> g_active_ops{nullptr};
std::atomic<int> g_active_isa{-1};

/// Publishes the dispatched tier (0 scalar, 1 AVX2, 2 AVX-512) to the
/// process-global registry so run manifests record which code path a
/// run actually exercised.
void publish_isa_gauge(simd::Isa isa) {
  MetricsRegistry::global()
      .gauge("dlcomp_simd_isa_level")
      .set(static_cast<double>(static_cast<int>(isa)));
}

const detail::KernelOps& resolve_ops() noexcept {
  simd::Isa isa = simd::requested();
  const detail::KernelOps* ops = detail::ops_for(isa);
  while (ops == nullptr && isa != simd::Isa::kScalar) {
    isa = static_cast<simd::Isa>(static_cast<int>(isa) - 1);
    ops = detail::ops_for(isa);
  }
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  g_active_ops.store(ops, std::memory_order_relaxed);
  publish_isa_gauge(isa);
  return *ops;
}

inline const detail::KernelOps& active_ops() noexcept {
  const detail::KernelOps* ops = g_active_ops.load(std::memory_order_relaxed);
  if (ops != nullptr) [[likely]] {
    return *ops;
  }
  return resolve_ops();
}

}  // namespace

namespace detail {

const KernelOps& scalar_ops() noexcept {
  static constexpr KernelOps table = {
      &codes_in_range_loop,
      &quantize_symbols_loop,   &quantize_codes_loop,
      &max_zigzag_loop,         &zigzag_loop,
      &dequantize_codes_loop,   &dequantize_symbols_loop,
      &scalar_lorenzo_encode,   &scalar_lorenzo_decode,
      &normal_candidates_loop,
  };
  return table;
}

const KernelOps* ops_for(simd::Isa isa) noexcept {
  switch (isa) {
    case simd::Isa::kAvx512:
      return avx512_ops();
    case simd::Isa::kAvx2:
      return avx2_ops();
    case simd::Isa::kScalar:
      break;
  }
  return &scalar_ops();
}

}  // namespace detail

simd::Isa dispatched_isa() noexcept {
  active_ops();  // force resolution
  return static_cast<simd::Isa>(g_active_isa.load(std::memory_order_relaxed));
}

bool force_isa_for_testing(simd::Isa isa) noexcept {
  if (isa > simd::cpu_best()) return false;
  const detail::KernelOps* ops = detail::ops_for(isa);
  if (ops == nullptr) return false;
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  g_active_ops.store(ops, std::memory_order_relaxed);
  publish_isa_gauge(isa);
  return true;
}

void quantize_to_symbols(std::span<const float> input, double eb,
                         std::span<std::uint32_t> symbols,
                         SymbolHistogram* hist) {
  DLCOMP_CHECK(symbols.size() == input.size());
  DLCOMP_CHECK_MSG(eb > 0.0, "quantizer error bound must be positive");
  if (input.empty()) {
    if (hist != nullptr) hist->reset();
    return;
  }
  const double inv = 1.0 / (2.0 * eb);
  const detail::KernelOps& ops = active_ops();
  check_code_range(ops, input, inv, eb);
  ops.quantize_symbols(input.data(), input.size(), inv, symbols.data());
  if (hist != nullptr) accumulate(symbols, *hist);
}

std::uint64_t quantize_to_codes(std::span<const float> input, double eb,
                                std::span<std::int32_t> codes) {
  DLCOMP_CHECK(codes.size() == input.size());
  DLCOMP_CHECK_MSG(eb > 0.0, "quantizer error bound must be positive");
  if (input.empty()) return 0;
  const double inv = 1.0 / (2.0 * eb);
  const detail::KernelOps& ops = active_ops();
  check_code_range(ops, input, inv, eb);
  ops.quantize_codes(input.data(), input.size(), inv, codes.data());
  return ops.max_zigzag(codes.data(), codes.size());
}

void codes_to_symbols(std::span<const std::int32_t> codes,
                      std::span<std::uint32_t> symbols, SymbolHistogram* hist) {
  DLCOMP_CHECK(symbols.size() == codes.size());
  if (!codes.empty()) {
    active_ops().zigzag(codes.data(), codes.size(), symbols.data());
  }
  if (hist != nullptr) accumulate(symbols, *hist);
}

void dequantize_codes(std::span<const std::int32_t> codes, double eb,
                      std::span<float> output) {
  DLCOMP_CHECK(output.size() == codes.size());
  if (codes.empty()) return;
  active_ops().dequantize_codes(codes.data(), codes.size(), 2.0 * eb,
                                output.data());
}

void dequantize_symbols(std::span<const std::uint32_t> symbols, double eb,
                        std::span<float> output) {
  DLCOMP_CHECK(output.size() == symbols.size());
  if (symbols.empty()) return;
  active_ops().dequantize_symbols(symbols.data(), symbols.size(), 2.0 * eb,
                                  output.data());
}

void lorenzo_encode_fused(std::span<const float> input, std::size_t dim,
                          double eb, std::span<float> reconstructed,
                          std::span<std::uint32_t> symbols,
                          SymbolHistogram* hist) {
  DLCOMP_CHECK(dim > 0);
  DLCOMP_CHECK(reconstructed.size() == input.size());
  DLCOMP_CHECK(symbols.size() == input.size());
  if (input.empty()) {
    if (hist != nullptr) hist->reset();
    return;
  }
  active_ops().lorenzo_encode(input.data(), input.size(), dim, 2.0 * eb,
                              reconstructed.data(), symbols.data());
  if (hist != nullptr) accumulate(symbols, *hist);
}

void normal_candidates(std::span<const double> u1, std::span<const double> u2,
                       double mean, double stddev, std::span<double> value,
                       std::span<double> radius) {
  DLCOMP_CHECK(u2.size() == u1.size());
  DLCOMP_CHECK(value.size() == 2 * u1.size() && radius.size() == value.size());
  if (u1.empty()) return;
  active_ops().normal_candidates(u1.data(), u2.data(), u1.size(), mean,
                                 stddev, value.data(), radius.data());
}

void lorenzo_decode_fused(std::span<const std::uint32_t> symbols,
                          std::size_t dim, double eb,
                          std::span<float> output) {
  DLCOMP_CHECK(dim > 0);
  DLCOMP_CHECK(symbols.size() == output.size());
  if (output.empty()) return;
  active_ops().lorenzo_decode(symbols.data(), output.size(), dim, 2.0 * eb,
                              output.data());
}

}  // namespace dlcomp::kernels
