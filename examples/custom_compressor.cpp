// Extending the library with a custom codec: implement the Compressor
// contract, then race it against the built-in stack on a lookup batch
// and through the Eq. (2) speedup model. A codec author writes two
// functions: do_compress appends a self-describing stream (header via
// the format.hpp helpers, then the payload), and do_decompress decodes
// one payload. The Compressor front does the rest: it times each call,
// fills CompressionStats, lends a scratch workspace, parses the header
// and rejects streams of another codec or of the wrong element count
// before do_decompress runs.
//
//   ./build/example_custom_compressor

#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "compress/format.hpp"
#include "compress/quantizer.hpp"
#include "compress/registry.hpp"
#include "core/selector.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace dlcomp;

/// A deliberately simple error-bounded codec: quantize, then store each
/// code as one byte when it fits and escape otherwise. Roughly what a
/// first GPU prototype would do before adding matching/entropy stages.
class ByteQuantCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "byte-quant";
  }
  /// Reuses an id slot for the demo; a real codec adds its own CodecId.
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kHybrid;
  }
  [[nodiscard]] bool lossy() const noexcept override { return true; }

 private:
  void do_compress(std::span<const float> input, const CompressParams& params,
                   std::vector<std::byte>& out,
                   CompressionWorkspace& /*ws*/) const override {
    const double eb = resolve_error_bound(input, params);

    StreamHeader header;
    header.codec = id();
    header.element_count = input.size();
    header.effective_error_bound = eb;
    const std::size_t patch_at = append_header(out, header);
    const std::size_t payload_start = out.size();

    std::vector<std::int32_t> codes(input.size());
    quantize(input, eb, codes);
    for (const auto code : codes) {
      if (code >= -127 && code <= 127) {
        out.push_back(static_cast<std::byte>(static_cast<std::int8_t>(code)));
      } else {
        out.push_back(static_cast<std::byte>(std::int8_t{-128}));  // escape
        append_pod(out, code);
      }
    }
    patch_payload_bytes(out, patch_at, out.size() - payload_start);
  }

  void do_decompress(const StreamHeader& header,
                     std::span<const std::byte> payload, std::span<float> out,
                     CompressionWorkspace& /*ws*/) const override {
    std::vector<std::int32_t> codes(out.size());
    ByteReader reader(payload);
    for (auto& code : codes) {
      const auto byte = reader.read<std::int8_t>();
      code = byte == -128 ? reader.read<std::int32_t>() : byte;
    }
    dequantize(codes, header.effective_error_bound, out);
  }
};

}  // namespace

int main() {
  Rng rng(3);
  std::vector<float> batch(256 * 32);
  for (auto& v : batch) v = static_cast<float>(rng.normal(0.0, 0.15));

  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = 32;

  const ByteQuantCompressor custom;
  std::printf("%-12s %8s %10s %12s\n", "codec", "CR", "max err", "Eq.2 speedup");
  auto report = [&](const Compressor& codec) {
    const RoundTrip rt = round_trip(codec, batch, params);
    const double speedup = eq2_speedup(rt.compress_stats.ratio(), 4e9,
                                       /*Tc=*/50e9, /*Td=*/50e9);
    std::printf("%-12s %7.2fx %10.6f %11.2fx\n",
                std::string(codec.name()).c_str(), rt.compress_stats.ratio(),
                max_abs_error(batch, rt.reconstructed), speedup);
  };
  report(custom);
  report(get_compressor("huffman"));
  report(get_compressor("vector-lz"));
  report(get_compressor("hybrid"));
  std::printf("\nthe byte-quant prototype already gets ~4x from the "
              "quantizer alone; the paper's matching/entropy stages are "
              "where the rest comes from\n");
  return 0;
}
