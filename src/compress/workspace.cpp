#include "compress/workspace.hpp"

#include <algorithm>

namespace dlcomp {

// ---------------------------------------------------- MatchPositionTable

bool MatchPositionTable::prepare(std::size_t expected_keys) {
  std::size_t want = 16;
  while (want < expected_keys * 2) want <<= 1;
  bool grew = false;
  if (slots_.size() < want) {
    slots_.assign(want, Slot{});
    generation_ = 0;
    grew = true;
  }
  mask_ = slots_.size() - 1;
  if (++generation_ == 0) {
    // Generation counter wrapped: hard-clear so stale stamps cannot alias.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    generation_ = 1;
  }
  return grew;
}

std::size_t MatchPositionTable::probe(std::uint64_t key) const noexcept {
  // Fibonacci scatter then linear probing; the full key is stored, so
  // lookups resolve exactly like a map keyed on the 64-bit hash.
  std::size_t i = static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ULL) & mask_;
  for (;;) {
    const Slot& slot = slots_[i];
    if (slot.generation != generation_ || slot.key == key) return i;
    i = (i + 1) & mask_;
  }
}

const std::size_t* MatchPositionTable::find(std::uint64_t key) const noexcept {
  const Slot& slot = slots_[probe(key)];
  return slot.generation == generation_ ? &slot.value : nullptr;
}

void MatchPositionTable::put(std::uint64_t key, std::size_t position) noexcept {
  Slot& slot = slots_[probe(key)];
  slot.key = key;
  slot.value = position;
  slot.generation = generation_;
}

// -------------------------------------------------- CompressionWorkspace

void CompressionWorkspace::reserve(std::size_t elements,
                                   std::size_t vector_dim) {
  grow_if_used(codes_, elements);
  grow_if_used(symbols_, elements);
  grow_if_used(recon_, elements);
  const std::size_t vectors = elements / std::max<std::size_t>(1, vector_dim);
  grow_if_used(lz_tokens_, vectors);
  if (match_table_.capacity_bytes() != 0 && match_table_.prepare(vectors)) {
    ++grow_events_;
  }
}

std::uint64_t CompressionWorkspace::grow_events() const noexcept {
  return grow_events_;
}

std::size_t CompressionWorkspace::capacity_bytes() const noexcept {
  return codes_.capacity() * sizeof(std::int32_t) +
         symbols_.capacity() * sizeof(std::uint32_t) +
         recon_.capacity() * sizeof(float) +
         histogram_.dense.capacity() * sizeof(std::uint64_t) +
         huffman_.capacity_bytes() + writer_.capacity_bytes() +
         match_table_.capacity_bytes() +
         lz_tokens_.capacity() * sizeof(std::size_t) +
         caller_stream_.capacity();
}

CompressionWorkspace& thread_local_workspace() {
  static thread_local CompressionWorkspace workspace;
  return workspace;
}

}  // namespace dlcomp
