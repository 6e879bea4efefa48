#pragma once

/// \file workspace.hpp
/// Reusable scratch arena for the codec hot path. One `compress()` /
/// `decompress()` call needs code/symbol/reconstruction buffers, a symbol
/// histogram, a bit writer, a Huffman codec (tables included) and — for
/// the vector-LZ scan — a match-position hash table. Allocating those per
/// call dominated small-chunk codec time; a CompressionWorkspace owns all
/// of them and retains capacity across calls, so steady-state training /
/// serving iterations perform zero codec-path heap allocations.
///
/// Threading rules (see DESIGN.md "Codec hot path"):
///  - a workspace is single-owner: exactly one codec call uses it at a
///    time (calls may nest deliberately, e.g. hybrid hands its workspace
///    to its inner codecs — disjoint scratch members are documented
///    per accessor);
///  - BlockEngine, which fans codec work across a ThreadPool, owns one
///    workspace per lane, so pool threads never share scratch;
///  - a Compressor call that brings no workspace borrows the calling
///    thread's (thread_local_workspace()); so do tasks that run one per
///    pool thread, e.g. the checkpoint reader's per-table decodes.
///
/// Accounting: grow_events() counts scratch (re)allocations and
/// capacity_bytes() reports the arena high-water mark, so tests and the
/// bench report can assert "no growth after warm-up".

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitstream.hpp"
#include "compress/histogram.hpp"
#include "compress/huffman_coding.hpp"

namespace dlcomp {

/// Open-addressed hash -> last-position table for the vector-LZ match
/// scan. Same observable semantics as an unordered_map keyed by the full
/// 64-bit hash (so streams stay byte-identical), but flat storage with
/// generation-stamped slots: reuse costs O(1), probing allocates nothing.
class MatchPositionTable {
 public:
  /// Readies the table for ~expected_keys inserts (load factor <= 0.5).
  /// Invalidates previous contents. Returns true if storage grew.
  bool prepare(std::size_t expected_keys);

  /// Returns the stored position for `key`, or nullptr.
  [[nodiscard]] const std::size_t* find(std::uint64_t key) const noexcept;

  /// Inserts or overwrites `key`'s position.
  void put(std::uint64_t key, std::size_t position) noexcept;

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::size_t value = 0;
    std::uint32_t generation = 0;
  };
  [[nodiscard]] std::size_t probe(std::uint64_t key) const noexcept;

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t generation_ = 0;
};

/// The per-call scratch arena. Single-owner; see file comment.
class CompressionWorkspace {
 public:
  CompressionWorkspace() = default;
  CompressionWorkspace(const CompressionWorkspace&) = delete;
  CompressionWorkspace& operator=(const CompressionWorkspace&) = delete;
  CompressionWorkspace(CompressionWorkspace&&) = default;
  CompressionWorkspace& operator=(CompressionWorkspace&&) = default;

  /// Quantization-code scratch (vector-LZ literals, code-space decoders).
  std::span<std::int32_t> codes(std::size_t n) { return ensure(codes_, n); }

  /// Zigzag-symbol scratch (entropy-coder alphabet space).
  std::span<std::uint32_t> symbols(std::size_t n) { return ensure(symbols_, n); }

  /// Running-reconstruction scratch (Lorenzo prediction feedback).
  std::span<float> recon(std::size_t n) { return ensure(recon_, n); }

  /// Histogram for the entropy stage; kernels reset it before use.
  SymbolHistogram& histogram() noexcept { return histogram_; }

  /// Reusable Huffman codec (encode-side build or decode-side tables).
  HuffmanCodec& huffman() noexcept { return huffman_; }

  /// Bit writer for payload emission; callers reset() it before use.
  BitWriter& writer() noexcept { return writer_; }

  /// Vector-LZ match table.
  MatchPositionTable& match_table() noexcept { return match_table_; }

  /// Vector-LZ scan tokens, one per whole vector (match distance, or 0
  /// for a literal): VectorLzCompressor::plan records them and
  /// write_planned emits the stream from them, so hybrid sizes its LZ
  /// candidate without writing it.
  std::span<std::size_t> lz_tokens(std::size_t n) {
    return ensure(lz_tokens_, n);
  }

  /// Byte scratch for *callers* of compress() that need a reusable output
  /// stream (e.g. the chunked compressor's per-task staging buffer) —
  /// never touched by the codecs themselves.
  std::vector<std::byte>& caller_stream() noexcept { return caller_stream_; }

  /// Grows the element-sized scratch a codec has already used (codes,
  /// symbols, recon, vector-LZ tokens and match table) to hold a tensor
  /// of `elements` elements in rows of `vector_dim`, counting the growth.
  /// A caller whose tensors vary in length below a known bound passes
  /// the bound, so the scratch reaches its high-water on the second call
  /// rather than on the largest tensor.
  void reserve(std::size_t elements, std::size_t vector_dim);

  /// Number of times any tracked scratch buffer had to (re)allocate.
  /// Flat after warm-up == the codec path stopped touching the heap.
  [[nodiscard]] std::uint64_t grow_events() const noexcept;

  /// Records a growth of a member the templates cannot observe (e.g. the
  /// match table's storage); called by the codecs that manage it.
  void note_grow_event() noexcept { ++grow_events_; }

  /// Current high-water heap capacity held by the arena (including the
  /// members grow_events() cannot observe directly, e.g. the writer).
  [[nodiscard]] std::size_t capacity_bytes() const noexcept;

 private:
  template <typename T>
  void grow_if_used(std::vector<T>& v, std::size_t n) {
    if (v.capacity() == 0 || v.capacity() >= n) return;
    v.reserve(n);
    ++grow_events_;
  }

  template <typename T>
  std::span<T> ensure(std::vector<T>& v, std::size_t n) {
    if (n > v.capacity()) ++grow_events_;
    v.resize(n);
    return {v.data(), n};
  }

  std::vector<std::int32_t> codes_;
  std::vector<std::uint32_t> symbols_;
  std::vector<float> recon_;
  SymbolHistogram histogram_;
  HuffmanCodec huffman_;
  BitWriter writer_;
  MatchPositionTable match_table_;
  std::vector<std::size_t> lz_tokens_;
  std::vector<std::byte> caller_stream_;
  std::uint64_t grow_events_ = 0;
};

/// The calling thread's workspace, lent to Compressor calls that bring
/// none. Never shared across threads; do not hold a reference across a
/// call that might also use it (codecs only pass workspaces downward).
CompressionWorkspace& thread_local_workspace();

}  // namespace dlcomp
