#include "compress/zfp_like.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "common/bitstream.hpp"
#include "compress/format.hpp"

namespace dlcomp {

namespace {

constexpr std::size_t kBlock = ZfpLikeCompressor::kBlockValues;

/// Reversible integer Haar-style lifting over 4 coefficients. Sum/diff
/// pairs grow the magnitude by at most 2 bits across both levels; the
/// inverse is exact because s+d = 2a and s-d = 2b are always even.
/// Sums and differences go through uint64 so corrupted streams carrying
/// extreme coefficients wrap (two's complement) instead of hitting
/// signed-overflow UB; valid streams never overflow, so results there
/// are unchanged.
std::int64_t wrap_add(std::int64_t a, std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

std::int64_t wrap_sub(std::int64_t a, std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

void forward_lift(std::array<std::int64_t, kBlock>& v) noexcept {
  const std::int64_t s0 = wrap_add(v[0], v[1]);
  const std::int64_t d0 = wrap_sub(v[0], v[1]);
  const std::int64_t s1 = wrap_add(v[2], v[3]);
  const std::int64_t d1 = wrap_sub(v[2], v[3]);
  v[0] = wrap_add(s0, s1);  // low-pass
  v[1] = wrap_sub(s0, s1);
  v[2] = d0;
  v[3] = d1;
}

void inverse_lift(std::array<std::int64_t, kBlock>& v) noexcept {
  const std::int64_t s0 = wrap_add(v[0], v[1]) / 2;
  const std::int64_t s1 = wrap_sub(v[0], v[1]) / 2;
  const std::int64_t d0 = v[2];
  const std::int64_t d1 = v[3];
  v[0] = wrap_add(s0, d0) / 2;
  v[1] = wrap_sub(s0, d0) / 2;
  v[2] = wrap_add(s1, d1) / 2;
  v[3] = wrap_sub(s1, d1) / 2;
}

/// Width (bits) of the zigzag form of the widest value in a group.
unsigned group_width(std::span<const std::int64_t> values) noexcept {
  std::uint64_t max_symbol = 0;
  for (const auto v : values) {
    max_symbol = std::max(max_symbol, zigzag_encode(v));
  }
  return bit_width_for(max_symbol);
}

}  // namespace

void ZfpLikeCompressor::do_compress(std::span<const float> input,
                                    const CompressParams& params,
                                    std::vector<std::byte>& out,
                                    CompressionWorkspace& /*ws*/) const {
  const double eb = resolve_error_bound(input, params);

  StreamHeader header;
  header.codec = id();
  header.vector_dim = header_vector_dim(params.vector_dim);
  header.element_count = input.size();
  header.effective_error_bound = eb;
  const std::size_t patch_at = append_header(out, header);
  const std::size_t payload_start = out.size();

  if (!input.empty()) {
    BitWriter writer;
    // Quantization step: 2*eb total bin width keeps |x - x'| <= eb; the
    // lifting transform is exact on integers so no further error enters.
    const double inv_step = 1.0 / (2.0 * eb);

    for (std::size_t base = 0; base < input.size(); base += kBlock) {
      std::array<std::int64_t, kBlock> q{};
      const std::size_t count = std::min(kBlock, input.size() - base);
      bool all_zero = true;
      for (std::size_t i = 0; i < count; ++i) {
        q[i] = std::llround(static_cast<double>(input[base + i]) * inv_step);
        all_zero = all_zero && q[i] == 0;
      }
      if (all_zero) {
        // Empty-block shortcut (ZFP's all-zero group test).
        writer.write_bit(false);
        continue;
      }
      writer.write_bit(true);
      forward_lift(q);

      // Two width groups: the low-pass coefficient and the details.
      const unsigned low_bits = group_width({q.data(), 1});
      const unsigned detail_bits = group_width({q.data() + 1, kBlock - 1});
      writer.write(low_bits - 1, 6);    // widths in [1, 64]
      writer.write(detail_bits - 1, 6);
      writer.write(zigzag_encode(q[0]), low_bits);
      for (std::size_t i = 1; i < kBlock; ++i) {
        writer.write(zigzag_encode(q[i]), detail_bits);
      }
    }
    writer.finish_into(out);
  }

  patch_payload_bytes(out, patch_at, out.size() - payload_start);
}

void ZfpLikeCompressor::do_decompress(const StreamHeader& header,
                                      std::span<const std::byte> payload,
                                      std::span<float> out,
                                      CompressionWorkspace& /*ws*/) const {
  BitReader reader(payload);
  const double step = 2.0 * header.effective_error_bound;

  for (std::size_t base = 0; base < out.size(); base += kBlock) {
    const std::size_t count = std::min(kBlock, out.size() - base);
    if (!reader.read_bit()) {
      for (std::size_t i = 0; i < count; ++i) out[base + i] = 0.0f;
      continue;
    }
    const unsigned low_bits = static_cast<unsigned>(reader.read(6)) + 1;
    const unsigned detail_bits = static_cast<unsigned>(reader.read(6)) + 1;
    std::array<std::int64_t, kBlock> q{};
    q[0] = zigzag_decode(reader.read(low_bits));
    for (std::size_t i = 1; i < kBlock; ++i) {
      q[i] = zigzag_decode(reader.read(detail_bits));
    }
    inverse_lift(q);
    for (std::size_t i = 0; i < count; ++i) {
      out[base + i] = static_cast<float>(static_cast<double>(q[i]) * step);
    }
  }
}

}  // namespace dlcomp
