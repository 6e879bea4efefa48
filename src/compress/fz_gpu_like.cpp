#include "compress/fz_gpu_like.hpp"

#include <array>
#include <cstring>
#include <vector>

#include "common/bitstream.hpp"
#include "compress/format.hpp"
#include "compress/kernels.hpp"
#include "compress/workspace.hpp"

namespace dlcomp {

namespace {

constexpr std::size_t kPlaneBytes = FzGpuLikeCompressor::kBlockValues / 8;
constexpr std::size_t kPlanes = 32;

/// Transposes one block of values into bit planes: plane[b] byte j bit i
/// = bit b of value (j*8 + i).
void bitshuffle_block(const std::uint32_t* values, std::size_t count,
                      std::array<std::array<std::uint8_t, kPlaneBytes>, kPlanes>& planes) {
  for (auto& plane : planes) plane.fill(0);
  for (std::size_t v = 0; v < count; ++v) {
    const std::uint32_t value = values[v];
    if (value == 0) continue;
    const std::size_t byte = v / 8;
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (v % 8));
    for (std::size_t b = 0; b < kPlanes; ++b) {
      if (value & (1u << b)) planes[b][byte] |= bit;
    }
  }
}

void unshuffle_block(
    const std::array<std::array<std::uint8_t, kPlaneBytes>, kPlanes>& planes,
    std::size_t count, std::uint32_t* values) {
  for (std::size_t v = 0; v < count; ++v) values[v] = 0;
  for (std::size_t b = 0; b < kPlanes; ++b) {
    const auto& plane = planes[b];
    for (std::size_t v = 0; v < count; ++v) {
      if (plane[v / 8] & (1u << (v % 8))) values[v] |= (1u << b);
    }
  }
}

}  // namespace

void FzGpuLikeCompressor::do_compress(std::span<const float> input,
                                      const CompressParams& params,
                                      std::vector<std::byte>& out,
                                      CompressionWorkspace& ws) const {
  const double eb = resolve_error_bound(input, params);

  StreamHeader header;
  header.codec = id();
  header.vector_dim = header_vector_dim(params.vector_dim);
  header.element_count = input.size();
  header.effective_error_bound = eb;
  const std::size_t patch_at = append_header(out, header);
  const std::size_t payload_start = out.size();

  if (!input.empty()) {
    const auto symbols = ws.symbols(input.size());
    kernels::quantize_to_symbols(input, eb, symbols, nullptr);

    std::array<std::array<std::uint8_t, kPlaneBytes>, kPlanes> planes;
    for (std::size_t base = 0; base < symbols.size(); base += kBlockValues) {
      const std::size_t count = std::min(kBlockValues, symbols.size() - base);
      bitshuffle_block(symbols.data() + base, count, planes);

      // Zero-plane suppression: 32-bit presence bitmap, then the raw
      // bytes of every non-zero plane.
      std::uint32_t bitmap = 0;
      for (std::size_t b = 0; b < kPlanes; ++b) {
        bool any = false;
        for (const auto byte : planes[b]) any = any || (byte != 0);
        if (any) bitmap |= (1u << b);
      }
      append_pod(out, bitmap);
      for (std::size_t b = 0; b < kPlanes; ++b) {
        if (bitmap & (1u << b)) {
          const auto* p = reinterpret_cast<const std::byte*>(planes[b].data());
          out.insert(out.end(), p, p + kPlaneBytes);
        }
      }
    }
  }

  patch_payload_bytes(out, patch_at, out.size() - payload_start);
}

void FzGpuLikeCompressor::do_decompress(const StreamHeader& header,
                                        std::span<const std::byte> payload,
                                        std::span<float> out,
                                        CompressionWorkspace& ws) const {
  ByteReader reader(payload);
  const auto symbols = ws.symbols(out.size());
  std::array<std::array<std::uint8_t, kPlaneBytes>, kPlanes> planes;
  for (std::size_t base = 0; base < symbols.size(); base += kBlockValues) {
    const std::size_t count = std::min(kBlockValues, symbols.size() - base);
    const auto bitmap = reader.read<std::uint32_t>();
    for (std::size_t b = 0; b < kPlanes; ++b) {
      if (bitmap & (1u << b)) {
        reader.read_span(std::span<std::uint8_t>(planes[b]));
      } else {
        planes[b].fill(0);
      }
    }
    unshuffle_block(planes, count, symbols.data() + base);
  }

  kernels::dequantize_symbols(symbols, header.effective_error_bound, out);
}

}  // namespace dlcomp
