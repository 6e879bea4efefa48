#pragma once

/// \file reference_analysis.hpp
/// The offline analyzer's former counting kernels, kept as the ground
/// truth the one-pass versions are differentially tested against:
///
///  - code_entropy_bits counted every int32 code into an unordered_map;
///    detail::symbol_entropy_bits (core/offline_analyzer.hpp) counts
///    zigzag symbols densely and must return the same bits;
///  - fnv1a_bytes hashed unique-row keys one byte at a time;
///    detail::hash_row_words (compress/quantizer.hpp) hashes 8 bytes at a
///    time, and the distinct-row counts must not change.
///
/// Test-only: compiled into the suites that compare against them, never
/// into dlcomp_core.

#include <cstddef>
#include <cstdint>
#include <span>

namespace dlcomp::reference {

/// Shannon entropy (bits/symbol) of an int32 code sequence, via a
/// hash-map histogram (reserve(1024)) summed in iteration order.
double code_entropy_bits(std::span<const std::int32_t> codes);

/// FNV-1a over a run of bytes.
std::uint64_t fnv1a_bytes(const void* data, std::size_t bytes) noexcept;

}  // namespace dlcomp::reference
