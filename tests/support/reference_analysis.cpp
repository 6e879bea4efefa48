#include "support/reference_analysis.hpp"

#include <unordered_map>
#include <vector>

#include "common/stats.hpp"

namespace dlcomp::reference {

double code_entropy_bits(std::span<const std::int32_t> codes) {
  std::unordered_map<std::int32_t, std::uint64_t> histogram;
  histogram.reserve(1024);
  for (const auto c : codes) ++histogram[c];
  std::vector<std::uint64_t> freqs;
  freqs.reserve(histogram.size());
  for (const auto& [sym, f] : histogram) freqs.push_back(f);
  return entropy_bits(freqs);
}

std::uint64_t fnv1a_bytes(const void* data, std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace dlcomp::reference
