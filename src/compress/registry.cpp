#include "compress/registry.hpp"

#include <array>

#include "common/error.hpp"
#include "compress/cusz_like.hpp"
#include "compress/deflate_like.hpp"
#include "compress/fz_gpu_like.hpp"
#include "compress/generic_lz.hpp"
#include "compress/huffman_compressor.hpp"
#include "compress/hybrid.hpp"
#include "compress/low_precision.hpp"
#include "compress/vector_lz.hpp"
#include "compress/zfp_like.hpp"

namespace dlcomp {

namespace {

const CuszLikeCompressor kCusz;
const FzGpuLikeCompressor kFzGpu;
const VectorLzCompressor kVectorLz;
const HuffmanCompressor kHuffman;
const GenericLzCompressor kGenericLz;
const DeflateLikeCompressor kDeflate;
const Fp16Compressor kFp16;
const Fp8Compressor kFp8;
const HybridCompressor kHybrid;
const ZfpLikeCompressor kZfp;

/// Every codec, in the comparison order the paper's Table V / Fig. 11 use.
const Compressor* const kRegistry[] = {
    &kCusz,      &kZfp,     &kFzGpu, &kVectorLz, &kHuffman,
    &kGenericLz, &kDeflate, &kFp16,  &kFp8,      &kHybrid,
};

}  // namespace

const Compressor& get_compressor(std::string_view name) {
  for (const Compressor* codec : kRegistry) {
    if (codec->name() == name) return *codec;
  }
  throw Error("unknown compressor: " + std::string(name));
}

const Compressor& get_compressor(CodecId id) {
  for (const Compressor* codec : kRegistry) {
    if (codec->id() == id) return *codec;
  }
  throw FormatError("unknown codec id " + std::to_string(static_cast<int>(id)));
}

std::span<const std::string_view> all_compressor_names() noexcept {
  static const auto names = [] {
    std::array<std::string_view, std::size(kRegistry)> out;
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = kRegistry[i]->name();
    return out;
  }();
  return names;
}

}  // namespace dlcomp
