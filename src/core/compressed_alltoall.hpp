#pragma once

/// \file compressed_alltoall.hpp
/// The paper's four-stage communication pipeline (Sec. III-A):
///   (1) compress every per-destination chunk on the local device,
///   (2) exchange compressed sizes (metadata all-to-all),
///   (3) exchange compressed payloads (variable-size all-to-all),
///   (4) decompress on the receiver.
///
/// Each destination receives one packed buffer holding this rank's chunks
/// for it (e.g. one chunk per owned embedding table) behind a small
/// directory, so multiple tensors travel as a single message -- the wire
/// analogue of the buffer optimization. Stage (2) is realized inside
/// Communicator::all_to_all_v_async, which charges the metadata exchange
/// separately.
///
/// Buffer optimization, CPU edition: stage (1) sizes each destination's
/// directory up front, registers every chunk with a BlockEngine (large
/// chunks split into fixed blocks that compress independently — see
/// chunked.hpp), runs all blocks of all destinations as one flat
/// parallel task list, and assembles the streams into the send buffers
/// with the directory sizes patched in place. Stage (4) decompresses
/// through the same engine, so a group with one dominant chunk still
/// fans out across the pool. All scratch and all send buffers retain
/// their high-water capacity across iterations
/// (workspace_grow_events() exposes the counter tests assert on), and
/// the wire bytes are independent of pool width.
///
/// Stage pipelining (`pipeline_stages > 1`): each destination's chunk
/// list is split into contiguous groups; group k+1 compresses while group
/// k's payload is in flight on the simulated wire and groups decompress
/// as they land, so codec time hides wire time (and vice versa). Groups
/// serialize on the link (`not_before` floors each stage's start), the
/// framing carries exactly the monolithic path's bytes (the u32 chunk
/// count travels once, with group 0), and the received floats are
/// byte-identical to the monolithic path -- both asserted in tests.
///
/// Distinct-row chunks: lookups of one batch repeat rows, so before the
/// engine sees a chunk the sender finds its distinct `vector_dim`-float
/// rows, compared bitwise, in first-seen order (one pool task per chunk,
/// detail::find_distinct_rows). When the repeats save more bytes than
/// the form costs, `(rows - distinct) * row_bytes > 8 + map bytes`, the
/// chunk travels as
///   u32 row_width | u32 distinct | map | rows stream
/// where the map holds each row's first-seen index at
/// ceil(log2 distinct) bits, LSB-first (BitWriter), and the rows stream
/// is the engine's stream of the distinct rows only: their raw floats,
/// or the codec's stream of them. The top bit of the chunk's u64
/// directory size marks the form; any other chunk keeps the plain
/// engine stream, byte for byte. The receiver decodes the distinct rows
/// and expands them into the receive span. The rule is the same for raw
/// and every codec. Raw rows land bitwise as sent, and so do the rows of
/// a codec that reconstructs element by element (hybrid among them): a
/// repeated row decodes to the same floats whether it was sent or
/// expanded. cusz-like's 2-D Lorenzo predicts each row from the one
/// before, whose neighbours change, so its reconstruction may change
/// within the bound (DESIGN.md lists the codecs).
/// Modelled codec time is still charged on the full chunk bytes.
///
/// Wall time of the CPU codecs is measured and reported; simulated clocks
/// are charged with modelled GPU codec time (calibrated throughput +
/// kernel launches) so breakdowns compose consistently with the network
/// model. A2AStats splits the modelled wire time into exposed (stalled
/// the rank) and hidden (overlapped by codec/compute) seconds.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/phase_names.hpp"
#include "common/bitstream.hpp"
#include "compress/chunked.hpp"
#include "compress/compressor.hpp"
#include "compress/quantizer.hpp"
#include "compress/workspace.hpp"
#include "parallel/device_model.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp {

namespace detail {

/// Top bit of a chunk's u64 directory size: the chunk travels in
/// distinct-row form (see the file comment).
inline constexpr std::uint64_t kDistinctRowsFlag = std::uint64_t{1} << 63;

/// One chunk of a received group, as its directory entry describes it.
struct A2AChunkEntry {
  std::size_t offset = 0;       ///< into the group's payload
  std::size_t size = 0;         ///< stream bytes, flag cleared
  bool distinct_rows = false;   ///< the stream is in distinct-row form
};

/// Parses the directory at the front of one group buffer received from
/// rank `src`, which holds chunks [lo, hi) of `total_expected` (the u32
/// chunk count leads group 0 only), into `entries`, and returns the
/// payload behind it. Throws FormatError naming the rank (and the chunk
/// whose size is at fault) when the count differs, a size exceeds the
/// bytes left, or the sizes do not add up to the payload.
std::span<const std::byte> parse_chunk_directory(
    std::span<const std::byte> buffer, std::size_t src, std::size_t lo,
    std::size_t hi, std::size_t total_expected, bool first_group,
    std::vector<A2AChunkEntry>& entries);

}  // namespace detail

/// One tensor chunk addressed to a destination rank.
struct A2AChunkSpec {
  /// Chunks carrying the same tag are accumulated together in the
  /// per-tag byte accounting (the trainer tags chunks with the owning
  /// embedding table id, giving per-table compression ratios in the
  /// metrics snapshot). kNoTag opts out at zero cost.
  static constexpr std::uint32_t kNoTag = UINT32_MAX;

  std::span<const float> data;
  CompressParams params;
  std::uint32_t tag = kNoTag;
};

/// Per-rank statistics for one exchange.
struct A2AStats {
  std::size_t send_raw_bytes = 0;    ///< uncompressed payload this rank sent
  std::size_t send_wire_bytes = 0;   ///< compressed payload this rank sent
  double compress_wall_seconds = 0.0;
  double decompress_wall_seconds = 0.0;
  double modeled_compress_seconds = 0.0;
  double modeled_decompress_seconds = 0.0;
  /// Modelled wire seconds (metadata + payload + wait) that stalled this
  /// rank's clock vs. the part absorbed by overlapped codec/compute work.
  /// Serial (monolithic, no exchange_begin overlap) exchanges expose
  /// everything.
  double exposed_comm_seconds = 0.0;
  double hidden_comm_seconds = 0.0;
  /// CRC-32 of every byte this rank put on the wire: the packed buffers
  /// for destinations != rank, in destination order, group by group. A
  /// transport moves exactly these bytes, so equal CRCs across backends
  /// mean the wire streams were byte-identical (the cross-backend
  /// identity check in tests and the TCP smoke job).
  std::uint32_t wire_crc32 = 0;

  [[nodiscard]] double compression_ratio() const noexcept {
    return send_wire_bytes == 0
               ? 1.0
               : static_cast<double>(send_raw_bytes) /
                     static_cast<double>(send_wire_bytes);
  }
};

struct CompressedAllToAllConfig {
  /// Codec applied to every chunk; nullptr exchanges raw floats (the
  /// uncompressed baseline).
  const Compressor* codec = nullptr;
  /// Pool for parallel per-destination compression/decompression; may be
  /// null.
  ThreadPool* pool = nullptr;
  DeviceModel device;
  /// Whether to advance the rank's SimClock by modelled codec time.
  bool charge_modeled_time = true;
  /// Chunk groups per destination for the stage-pipelined exchange; 1 =
  /// monolithic (compress everything, then one collective). Every rank
  /// must configure the same value.
  std::size_t pipeline_stages = 1;
};

class CompressedAllToAll {
 public:
  explicit CompressedAllToAll(CompressedAllToAllConfig config);

  /// An exchange whose final payload group is still on the simulated
  /// wire. Between exchange_begin() and finish(), compute charged on the
  /// rank's clock hides that wire time (trainer-level overlap). The
  /// `send`/`recv` structures passed to exchange_begin() must stay alive
  /// until finish() returns. Move-only; finish() must be called exactly
  /// once.
  class PendingExchange {
   public:
    PendingExchange(PendingExchange&& other) noexcept { *this = std::move(other); }
    PendingExchange& operator=(PendingExchange&& other) noexcept;
    PendingExchange(const PendingExchange&) = delete;
    PendingExchange& operator=(const PendingExchange&) = delete;

    /// Lands the final group (overlap-charged wait), decompresses it into
    /// the receive spans, and returns the completed stats.
    A2AStats finish();

   private:
    friend class CompressedAllToAll;
    PendingExchange() = default;

    const CompressedAllToAll* owner_ = nullptr;
    Communicator* comm_ = nullptr;
    const std::vector<std::vector<std::span<float>>>* recv_ = nullptr;
    const PhaseNames* names_ = nullptr;
    std::size_t groups_ = 1;
    PendingCollective pending_;  ///< last issued group's collective
    A2AStats stats_;
    bool finished_ = true;
  };

  /// Performs the pipeline. `send[d]` lists chunks for destination d
  /// (d in [0, world)); `recv[s][i]` must be pre-sized to the element
  /// count of chunk i that rank s sends here -- chunk geometry is part of
  /// the application protocol, exactly as in the paper's trainer where
  /// every rank knows each table's slice shape.
  ///
  /// Reuses instance-held send buffers and codec workspaces across calls;
  /// an instance therefore supports one exchange at a time (the SPMD
  /// pattern: one CompressedAllToAll per rank), though its internal codec
  /// work may still fan out across the shared pool.
  ///
  /// Phase attribution on the simulated clock: "<phase>/compress",
  /// "<phase>/metadata", "<phase>" (payload), "<phase>/decompress",
  /// "<phase>/wait" (slowest-rank sync). Equivalent to exchange_begin()
  /// immediately finish()ed.
  A2AStats exchange(Communicator& comm,
                    const std::vector<std::vector<A2AChunkSpec>>& send,
                    const std::vector<std::vector<std::span<float>>>& recv,
                    std::string_view phase) const;

  /// Starts an exchange and returns with the last chunk group still in
  /// flight on the simulated wire (earlier groups, if pipelining, have
  /// already landed and decompressed). The caller may charge overlapped
  /// compute before finish().
  [[nodiscard]] PendingExchange exchange_begin(
      Communicator& comm, const std::vector<std::vector<A2AChunkSpec>>& send,
      const std::vector<std::vector<std::span<float>>>& recv,
      std::string_view phase) const;

  /// Total scratch (re)allocations across this instance's workspaces and
  /// packed send buffers (buffer growth and workspace creation both
  /// count); flat after warm-up == zero codec-path heap allocations per
  /// exchange.
  [[nodiscard]] std::uint64_t workspace_grow_events() const;

  /// Cumulative bytes sent per chunk tag (indexed by tag; raw = payload
  /// floats, wire = compressed stream). Empty when no chunk was tagged.
  struct TagBytes {
    std::uint64_t raw = 0;
    std::uint64_t wire = 0;
  };
  [[nodiscard]] std::vector<TagBytes> per_tag_bytes() const;

  /// High-water heap capacity of the reused send buffers + workspaces.
  [[nodiscard]] std::size_t scratch_capacity_bytes() const;

 private:
  /// Parsed view of one received packed buffer (one chunk group).
  struct RecvDirectory {
    std::vector<detail::A2AChunkEntry> entries;
    std::span<const std::byte> payload;
  };

  /// Distinct-row state of one chunk of the group being packed, indexed
  /// by the chunk's position in the group (destination-major), so every
  /// buffer keeps its high-water capacity across exchanges.
  struct SendRows {
    std::vector<detail::DistinctRowSlot> table;
    std::vector<std::uint32_t> map;  ///< first-seen index per row
    std::vector<float> rows;         ///< gathered distinct rows (codecs)
    std::size_t width = 0;
    std::size_t distinct = 0;
    bool distinct_rows = false;      ///< this chunk travels in that form
    bool grew = false;
    [[nodiscard]] std::size_t capacity_bytes() const noexcept {
      return table.capacity() * sizeof(detail::DistinctRowSlot) +
             map.capacity() * sizeof(std::uint32_t) +
             rows.capacity() * sizeof(float);
    }
  };

  /// A received distinct-row chunk waiting to be expanded, indexed like
  /// SendRows by the chunk's position in the group (source-major). It
  /// only views the received payload and the receive span.
  struct RecvRows {
    std::span<const std::byte> map;  ///< packed first-seen indices
    std::span<const std::byte> src;  ///< the distinct rows' float32 bytes
    std::span<float> out;
    std::size_t width = 0;
    std::size_t distinct = 0;
    bool pending = false;
  };

  /// Per-instance reusable state. Mutable because exchange() is logically
  /// const (scratch contents are never observable between calls).
  ///
  /// Encoding and decoding (both directions, raw chunks included: a
  /// null codec is the engine's raw mode) run through one BlockEngine: every
  /// chunk of every destination — split into blocks when large — forms a
  /// single flat task list per group, partitioned across fixed
  /// lane-indexed workspaces. Within one exchange the compress and
  /// decompress stages of a group never run concurrently, and lane l
  /// always sees the same tasks regardless of scheduling, so scratch
  /// sizes are stable across iterations — the zero-growth guarantee is
  /// deterministic rather than dependent on lease scheduling.
  struct Scratch {
    std::unique_ptr<BlockEngine> engine;
    std::vector<std::vector<std::byte>> packed;  // per destination
    std::vector<std::size_t> packed_caps;        // pre-group capacities
    std::vector<RecvDirectory> dirs;             // per source
    std::vector<const A2AChunkSpec*> group_chunks;  // destination-major
    std::vector<SendRows> send_rows;             // per chunk of the group
    std::vector<RecvRows> recv_rows;             // per chunk of the group
    BitWriter map_writer;
    /// Per-tag cumulative totals, sized to the high-water tag count
    /// (growth counted like any other scratch).
    std::vector<std::uint64_t> tag_raw;
    std::vector<std::uint64_t> tag_wire;
    /// Packed-buffer capacity growth + workspace creation, counted so a
    /// freshly constructed (or wrongly re-constructed-per-iteration)
    /// instance is visible to the steady-state grow-event tests.
    std::uint64_t grow_events = 0;
  };

  /// First chunk index of group g when `count` chunks split into `groups`
  /// contiguous groups (deterministic on both sender and receiver).
  static std::size_t group_begin(std::size_t count, std::size_t groups,
                                 std::size_t g) noexcept {
    return count * g / groups;
  }

  /// Compresses group g of every destination into scratch_.packed.
  /// Returns the group's raw payload bytes; adds its wire bytes and wall
  /// seconds to `stats`.
  std::size_t pack_group(Communicator& comm,
                         const std::vector<std::vector<A2AChunkSpec>>& send,
                         std::size_t g, std::size_t groups,
                         A2AStats& stats) const;

  /// Waits for group g's collective (overlap-charged), decompresses its
  /// chunks into the receive spans and charges modelled decompress time.
  void land_group(Communicator& comm, PendingCollective& pending,
                  std::size_t g, std::size_t groups,
                  const std::vector<std::vector<std::span<float>>>& recv,
                  const PhaseNames& names, A2AStats& stats) const;

  /// Finds the distinct rows of every chunk of group g (one pool task
  /// per chunk) and decides which chunks travel in distinct-row form.
  void find_group_rows(const std::vector<std::vector<A2AChunkSpec>>& send,
                       std::size_t g, std::size_t groups) const;

  /// Copies every pending distinct-row chunk's rows into place, one pool
  /// task per chunk.
  void expand_group_rows(std::size_t count) const;

  /// Checks a received distinct-row stream against its receive span and
  /// registers it for expansion: a codec's stream decodes into the head
  /// of the span, raw rows expand straight from the payload.
  void add_distinct_rows(std::span<const std::byte> stream,
                         std::span<float> out, RecvRows& rows) const;

  CompressedAllToAllConfig config_;
  /// Modelled codec throughputs: the calibrated table entry for the
  /// codec (unused when the codec is null).
  CodecThroughput throughput_;
  mutable Scratch scratch_;
};

}  // namespace dlcomp
