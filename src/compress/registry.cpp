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

struct Registered {
  std::string_view name;
  CodecId id;
  const Compressor& codec;
};

/// Every codec, in the comparison order the paper's Table V / Fig. 11 use.
const Registered kRegistry[] = {
    {"cusz-like", CodecId::kCuszLike, kCusz},
    {"zfp-like", CodecId::kZfpLike, kZfp},
    {"fz-gpu-like", CodecId::kFzGpuLike, kFzGpu},
    {"vector-lz", CodecId::kVectorLz, kVectorLz},
    {"huffman", CodecId::kHuffman, kHuffman},
    {"generic-lz", CodecId::kGenericLz, kGenericLz},
    {"deflate-like", CodecId::kDeflateLike, kDeflate},
    {"fp16", CodecId::kFp16, kFp16},
    {"fp8", CodecId::kFp8, kFp8},
    {"hybrid", CodecId::kHybrid, kHybrid},
};

constexpr std::array<std::string_view, 8> kPipelineNames = {
    "cusz-like", "zfp-like", "fz-gpu-like", "vector-lz",
    "huffman",   "generic-lz", "deflate-like", "hybrid",
};

}  // namespace

const Compressor& get_compressor(std::string_view name) {
  for (const Registered& entry : kRegistry) {
    if (entry.name == name) return entry.codec;
  }
  throw Error("unknown compressor: " + std::string(name));
}

const Compressor& get_compressor(CodecId id) {
  for (const Registered& entry : kRegistry) {
    if (entry.id == id) return entry.codec;
  }
  throw FormatError("unknown codec id " + std::to_string(static_cast<int>(id)));
}

std::span<const std::string_view> all_compressor_names() noexcept {
  static const auto names = [] {
    std::array<std::string_view, std::size(kRegistry)> out;
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = kRegistry[i].name;
    return out;
  }();
  return names;
}

std::span<const std::string_view> pipeline_compressor_names() noexcept {
  return kPipelineNames;
}

}  // namespace dlcomp
