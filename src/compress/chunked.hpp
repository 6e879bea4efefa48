#pragma once

/// \file chunked.hpp
/// Blocked multi-tensor compression (see DESIGN.md "Parallel framing and
/// SIMD dispatch").
///
/// One BlockEngine batch is the paper's buffer optimization (Sec. III-E,
/// Fig. 7): every tensor of one logical operation is registered, then the
/// blocks of all of them compress as one task list on the pool -- one
/// logical kernel -- into a single staging buffer, instead of one launch
/// per tensor into separate allocations followed by a gather copy.
/// Tensors larger than the block size split into fixed-size blocks that
/// compress and decompress independently, so a single dominant message
/// still fans out across the pool. Blocked streams travel in a "DLBK"
/// container whose bytes are a pure function of (input, params, block
/// size) -- never of thread count or scheduling.
///
/// A null codec is the engine's raw mode, the uncompressed baseline: a
/// raw stream is exactly the tensor's float32 bytes, never DLBK-framed
/// and never staged, so encoding is one copy from the caller's tensor
/// into the caller's buffer and decoding checks the size and copies
/// back. Callers therefore encode and decode raw and compressed tensors
/// through the same calls.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "compress/compressor.hpp"
#include "compress/workspace.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp {

/// Intra-message parallel compression with deterministic framing.
///
/// Usage is batched: register every tensor (or received stream) of one
/// logical operation, run the batch, then read the assembled streams
/// back in order. Registration and assembly are serial and cheap
/// (bookkeeping + memcpy); the run step executes every *block* of every
/// registered tensor as one flat task list on the pool, so parallelism
/// is limited by total block count, not tensor count.
///
/// Wire format: tensors no larger than the block size produce a plain
/// codec stream, byte-identical to a direct Compressor::compress call.
/// Larger tensors produce a DLBK container:
///
///   u32 magic 'DLBK' | u8 version | u8 + u16 reserved |
///   u64 element_count | u64 block_elems | u32 block_count | u32 reserved
///   | u64 block_bytes[block_count] | block streams back-to-back
///
/// where block i covers elements [i*block_elems, min(n, (i+1)*
/// block_elems)) and each block is a self-describing codec stream.
/// `block_elems` is the configured size rounded down to a multiple of
/// the tensor's vector_dim, so Lorenzo rows and vector-LZ patterns never
/// straddle blocks. The split — and therefore every output byte —
/// depends only on the input, the params, and the configured block size.
///
/// Determinism and allocation discipline: the engine owns one workspace
/// per lane (4x the pool width) and partitions the task list
/// contiguously across lanes, so lane l always runs the same tasks with
/// the same workspace regardless of scheduling; scratch reaches its
/// high-water mark during warm-up and grow_events() stays flat after.
/// Range-relative error bounds are resolved over the whole tensor before
/// splitting, so blocked and monolithic encodes quantize identically.
///
/// Raw mode (null codec): add_tensor() takes no staging, append_stream()
/// copies the tensor's bytes, and add_stream() rejects a stream whose
/// size is not 4 bytes per output element. A recon span is filled by
/// block-sized copy tasks on the lanes. Raw work counts in neither
/// blocks counter.
///
/// Thread-safety: one batch at a time per engine; the codec must be
/// const-thread-safe (all registry codecs are).
class BlockEngine {
 public:
  /// 256 Ki elements = 1 MiB of float32 per block: large enough that
  /// per-block headers and Huffman tables are noise (< 1% of a typical
  /// compressed block), small enough that an 8 MiB message fans out 8
  /// ways.
  static constexpr std::size_t kDefaultBlockElems = 256 * 1024;

  /// `codec` null is raw mode.
  BlockEngine(const Compressor* codec, ThreadPool* pool,
              std::size_t block_elems = kDefaultBlockElems);

  // ---- compression batch ------------------------------------------
  /// Drops all registered tensors/streams and starts a new batch.
  void compress_begin();

  /// Registers one tensor; returns its slot for append_stream(). `data`
  /// must stay alive until compress_run() returns (in raw mode, until
  /// the slot's stream is appended). When `recon` is non-empty (same
  /// length as `data`) each block is decompressed right after
  /// compressing, yielding the reader-visible reconstruction and its
  /// max_abs_error() without a second serial pass; raw mode copies
  /// `data` into it on the lanes, block by block. A `shape_elems` larger
  /// than `data` sizes the staging and the lane's scratch as if the
  /// tensor held that many elements, for callers whose tensor length
  /// varies below a known bound (see CompressionWorkspace::reserve).
  std::size_t add_tensor(std::span<const float> data,
                         const CompressParams& params,
                         std::span<float> recon = {},
                         std::size_t shape_elems = 0);

  /// Compresses every registered block across the pool. Exceptions from
  /// codec calls (e.g. non-finite input) are captured per lane and the
  /// lowest lane's is rethrown here.
  void compress_run();

  /// Writes slot's assembled wire bytes (plain stream, DLBK container or
  /// raw float32 bytes) into `out`, which must be exactly stream_bytes()
  /// long. Valid until the next compress_begin(). Calls for distinct
  /// slots into distinct buffers may run concurrently (the engine is only
  /// read).
  void write_stream(std::size_t slot, std::span<std::byte> out) const;

  /// Appends what write_stream() would write to `out`.
  void append_stream(std::size_t slot, std::vector<std::byte>& out) const;

  /// Assembled size of slot's stream, directory included.
  [[nodiscard]] std::size_t stream_bytes(std::size_t slot) const;

  /// Largest |data - recon| over slot's elements, measured in the lanes
  /// when add_tensor() got a recon span (0 otherwise). A non-finite
  /// difference counts as infinite, so a stream that decodes NaN never
  /// passes an error-bound check.
  [[nodiscard]] double max_abs_error(std::size_t slot) const;

  // ---- decompression batch ----------------------------------------
  void decompress_begin();

  /// Registers one received stream (plain or DLBK; raw in raw mode) with
  /// its pre-sized output. Validates DLBK framing, a plain stream's
  /// header and raw sizes eagerly; throws FormatError on a malformed
  /// container, a truncated stream or an element-count mismatch.
  /// `shape_elems` sizes the lane's scratch as in add_tensor().
  void add_stream(std::span<const std::byte> stream, std::span<float> out,
                  std::size_t shape_elems = 0);

  /// Decompresses every registered block across the pool.
  void decompress_run();

  // ---- framing helpers --------------------------------------------
  /// True when `stream` starts with the DLBK container magic.
  [[nodiscard]] static bool is_blocked(
      std::span<const std::byte> stream) noexcept;

  /// Element count of a DLBK container (throws FormatError when the
  /// fixed header is malformed). Use decompressed_count() for streams
  /// that may be either framing.
  [[nodiscard]] static std::size_t blocked_element_count(
      std::span<const std::byte> stream);

  // ---- accounting -------------------------------------------------
  /// Scratch (re)allocations: lane workspace creation + growth, staging
  /// and task-list growth. Flat after warm-up.
  [[nodiscard]] std::uint64_t grow_events() const;
  [[nodiscard]] std::size_t capacity_bytes() const;
  /// Block tasks executed (single-block tensors count as one block).
  [[nodiscard]] std::uint64_t blocks_compressed() const noexcept {
    return blocks_compressed_;
  }
  [[nodiscard]] std::uint64_t blocks_decompressed() const noexcept {
    return blocks_decompressed_;
  }

 private:
  struct Slot {
    std::size_t first_task = 0;
    std::size_t task_count = 1;
    std::size_t element_count = 0;
    std::size_t block_elems = 0;  ///< task split (dim-aligned with a codec)
    bool blocked = false;
  };
  struct CompressTask {
    std::size_t slot = 0;
    std::size_t staging_offset = 0;  ///< worst-case-spaced, deterministic
    std::size_t elem_begin = 0;
    std::size_t elem_count = 0;
    std::size_t scratch_elems = 0;  ///< staging and scratch sized for this
    std::size_t bytes = 0;  ///< actual stream size, filled by the lane
    double max_abs_error = 0.0;  ///< filled by the lane when recon is set
  };
  struct DecompressTask {
    std::span<const std::byte> stream;
    std::span<float> out;
    std::size_t scratch_elems = 0;
  };

  /// Runs body(task_index) for every index in [0, count) partitioned
  /// contiguously across the fixed lanes; body receives the lane's
  /// workspace. A throwing lane ends the call with the lowest failing
  /// lane's exception (one lane per pool block).
  template <typename Body>
  void run_lanes(std::size_t count, const Body& body);

  /// Emits slot's stream through `sink`'s put/put_bytes.
  template <typename Sink>
  void emit_stream(std::size_t slot, Sink& sink) const;

  void note_grow(std::size_t cap_before, std::size_t cap_after) {
    if (cap_after != cap_before) ++grow_events_;
  }

  const Compressor* codec_;  ///< null: raw mode
  ThreadPool* pool_;
  std::size_t block_elems_;
  std::vector<std::unique_ptr<CompressionWorkspace>> lanes_;

  std::vector<Slot> slots_;
  std::vector<CompressTask> tasks_;
  std::vector<DecompressTask> decode_tasks_;
  /// Per-slot views registered by add_tensor (the caller owns the data).
  std::vector<std::span<const float>> pending_data_;
  std::vector<CompressParams> pending_params_;
  std::vector<std::span<float>> pending_recon_;
  /// Worst-case-spaced block streams; never value-initialised, since
  /// every byte read back was first written by a lane.
  std::unique_ptr<std::byte[]> staging_;
  std::size_t staging_capacity_ = 0;
  std::size_t staging_cursor_ = 0;

  std::uint64_t grow_events_ = 0;
  std::uint64_t blocks_compressed_ = 0;
  std::uint64_t blocks_decompressed_ = 0;
};

/// Serially decompresses a stream that may be either a plain codec
/// stream or a DLBK container, or with a null codec a raw stream (the
/// reader-side counterpart for callers without a pool or engine, e.g.
/// per-table checkpoint decode). Returns wall seconds.
double blocked_decompress(const Compressor* codec,
                          std::span<const std::byte> stream,
                          std::span<float> out, CompressionWorkspace& ws);

}  // namespace dlcomp
