#pragma once

/// \file registry.hpp
/// Name-indexed access to the codec set: the paper's hybrid compressor,
/// its two components, and every baseline. The offline analyzer and the
/// benches enumerate codecs through this registry.

#include <span>
#include <string_view>
#include <vector>

#include "compress/compressor.hpp"
#include "compress/format.hpp"

namespace dlcomp {

/// Looks up a codec by stable name ("hybrid", "vector-lz", "huffman",
/// "generic-lz", "deflate-like", "cusz-like", "fz-gpu-like", "fp16",
/// "fp8"). Throws Error for unknown names. Returned references are
/// static singletons, thread-safe and valid for the program lifetime.
const Compressor& get_compressor(std::string_view name);

/// Looks up the codec that writes `id` into its stream headers (routes a
/// stream to its decoder). Throws FormatError for unregistered ids.
const Compressor& get_compressor(CodecId id);

/// All registered codec names, in the comparison order the paper's
/// Table V / Fig. 11 use.
std::span<const std::string_view> all_compressor_names() noexcept;

}  // namespace dlcomp
