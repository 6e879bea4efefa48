#include "compress/vector_lz.hpp"

#include <cstring>
#include <vector>

#include "common/bitstream.hpp"
#include "compress/format.hpp"
#include "compress/kernels.hpp"
#include "compress/workspace.hpp"

namespace dlcomp {

namespace {

std::uint64_t hash_codes(const std::int32_t* codes, std::size_t dim) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < dim; ++i) {
    h ^= static_cast<std::uint32_t>(codes[i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

bool codes_equal(const std::int32_t* a, const std::int32_t* b,
                 std::size_t dim) noexcept {
  return std::memcmp(a, b, dim * sizeof(std::int32_t)) == 0;
}

/// Scan token of a vector left as a literal; a match records its
/// distance, which is at least 1.
constexpr std::size_t kLiteralToken = 0;

/// Literal width covering the largest zigzag code, rounded up to whole
/// bytes. Byte alignment mirrors GPULZ's multi-byte token format (the
/// paper's substrate): unmatched vectors cost ~1 byte per element, so the
/// ratio on match-free tables lands near 4x -- the entropy coder's
/// territory, exactly the per-table contrast Table V reports.
unsigned literal_bits_for(std::uint64_t max_symbol) noexcept {
  return ((bit_width_for(max_symbol) + 7) / 8) * 8;
}

std::size_t varint_bytes(std::uint64_t value) noexcept {
  std::size_t bytes = 1;
  for (; value >= 0x80; value >>= 7) ++bytes;
  return bytes;
}

void check_params(const CompressParams& params) {
  DLCOMP_CHECK_MSG(params.vector_dim > 0, "vector_dim must be positive");
  DLCOMP_CHECK_MSG(params.lz_window_vectors > 0, "window must be positive");
}

}  // namespace

void VectorLzCompressor::do_compress(std::span<const float> input,
                                     const CompressParams& params,
                                     std::vector<std::byte>& out,
                                     CompressionWorkspace& ws) const {
  const double eb = resolve_error_bound(input, params);

  std::uint64_t max_symbol = 0;
  std::span<const std::int32_t> codes;
  if (!input.empty()) {
    const auto scratch = ws.codes(input.size());
    max_symbol = kernels::quantize_to_codes(input, eb, scratch);
    codes = scratch;
  }
  (void)plan(codes, max_symbol, params, ws);
  write_planned(codes, eb, max_symbol, params, out, ws);
}

VectorLzCompressor::Plan VectorLzCompressor::plan(
    std::span<const std::int32_t> codes, std::uint64_t max_symbol,
    const CompressParams& params, CompressionWorkspace& ws) const {
  check_params(params);
  if (codes.empty()) return {StreamHeader::kBytes, 0};

  // The match scan: each whole vector looks up its hash's most recent
  // position; a hit within the window whose codes compare equal becomes
  // a back-reference.
  const std::size_t dim = params.vector_dim;
  const std::size_t vectors = codes.size() / dim;
  const auto tokens = ws.lz_tokens(vectors);
  MatchPositionTable& last_pos = ws.match_table();
  if (last_pos.prepare(vectors)) ws.note_grow_event();
  std::size_t matches = 0;
  for (std::size_t v = 0; v < vectors; ++v) {
    const std::int32_t* cur = codes.data() + v * dim;
    const std::uint64_t h = hash_codes(cur, dim);
    const std::size_t* candidate = last_pos.find(h);
    tokens[v] = kLiteralToken;
    if (candidate != nullptr) {
      const std::size_t distance = v - *candidate;
      if (distance <= params.lz_window_vectors &&
          codes_equal(cur, codes.data() + *candidate * dim, dim)) {
        tokens[v] = distance;
        ++matches;
      }
    }
    last_pos.put(h, v);  // most recent occurrence wins (shortest distances)
  }

  // Payload bits exactly as write_planned emits them: a flag bit per
  // vector, then a distance or dim literals; tail elements are literals.
  const std::size_t literal_bits = literal_bits_for(max_symbol);
  const std::size_t distance_bits =
      bit_width_for(params.lz_window_vectors - 1);
  const std::size_t bits = matches * (1 + distance_bits) +
                           (vectors - matches) * (1 + dim * literal_bits) +
                           (codes.size() - vectors * dim) * literal_bits;
  return {StreamHeader::kBytes + 1 + varint_bytes(params.lz_window_vectors) +
              (bits + 7) / 8,
          matches};
}

void VectorLzCompressor::write_planned(std::span<const std::int32_t> codes,
                                       double eb, std::uint64_t max_symbol,
                                       const CompressParams& params,
                                       std::vector<std::byte>& out,
                                       CompressionWorkspace& ws) const {
  check_params(params);

  StreamHeader header;
  header.codec = CodecId::kVectorLz;
  header.vector_dim = header_vector_dim(params.vector_dim);
  header.element_count = codes.size();
  header.effective_error_bound = eb;
  const std::size_t patch_at = append_header(out, header);
  const std::size_t payload_start = out.size();

  if (!codes.empty()) {
    const unsigned literal_bits = literal_bits_for(max_symbol);
    const unsigned distance_bits = bit_width_for(params.lz_window_vectors - 1);

    out.push_back(static_cast<std::byte>(literal_bits));
    append_varint(out, params.lz_window_vectors);

    const std::size_t dim = params.vector_dim;
    const std::size_t vectors = codes.size() / dim;
    const auto tokens = ws.lz_tokens(vectors);
    BitWriter& writer = ws.writer();
    writer.reset();
    writer.reserve_bits(codes.size() * (literal_bits + 1) / 2);
    for (std::size_t v = 0; v < vectors; ++v) {
      if (tokens[v] != kLiteralToken) {
        writer.write_bit(true);
        writer.write(tokens[v] - 1, distance_bits);
        continue;
      }
      writer.write_bit(false);
      const std::int32_t* vec = codes.data() + v * dim;
      for (std::size_t i = 0; i < dim; ++i) {
        writer.write(zigzag_encode32(vec[i]), literal_bits);
      }
    }

    // Tail elements that do not fill a whole vector are raw literals.
    for (std::size_t i = vectors * dim; i < codes.size(); ++i) {
      writer.write(zigzag_encode32(codes[i]), literal_bits);
    }
    writer.finish_into(out);
  }

  patch_payload_bytes(out, patch_at, out.size() - payload_start);
}

void VectorLzCompressor::do_decompress(const StreamHeader& header,
                                       std::span<const std::byte> payload,
                                       std::span<float> out,
                                       CompressionWorkspace& ws) const {
  std::size_t pos = 0;
  DLCOMP_CHECK(!payload.empty());
  const unsigned literal_bits = std::to_integer<unsigned>(payload[pos++]);
  const std::uint64_t window_vectors = read_varint(payload, pos);
  const unsigned distance_bits =
      bit_width_for(window_vectors > 0 ? window_vectors - 1 : 0);

  const std::size_t dim = header.vector_dim;
  DLCOMP_CHECK(dim > 0);
  const std::size_t vectors = out.size() / dim;

  const auto codes = ws.codes(out.size());
  BitReader reader(payload.subspan(pos));
  for (std::size_t v = 0; v < vectors; ++v) {
    std::int32_t* dst = codes.data() + v * dim;
    if (reader.read_bit()) {
      const std::size_t distance = static_cast<std::size_t>(reader.read(distance_bits)) + 1;
      if (distance > v) throw FormatError("vector-lz backref out of range");
      std::memcpy(dst, codes.data() + (v - distance) * dim,
                  dim * sizeof(std::int32_t));
    } else {
      for (std::size_t i = 0; i < dim; ++i) {
        dst[i] = static_cast<std::int32_t>(
            zigzag_decode(reader.read(literal_bits)));
      }
    }
  }
  for (std::size_t i = vectors * dim; i < codes.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(zigzag_decode(reader.read(literal_bits)));
  }

  kernels::dequantize_codes(codes, header.effective_error_bound, out);
}

std::size_t VectorLzCompressor::count_matches(std::span<const float> input,
                                              const CompressParams& params) {
  if (input.empty()) return 0;
  const double eb = resolve_error_bound(input, params);
  CompressionWorkspace& ws = thread_local_workspace();
  const auto codes = ws.codes(input.size());
  const std::uint64_t max_symbol = kernels::quantize_to_codes(input, eb, codes);
  return VectorLzCompressor().plan(codes, max_symbol, params, ws).matches;
}

}  // namespace dlcomp
