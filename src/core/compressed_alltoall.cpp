#include "core/compressed_alltoall.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <utility>

#include "common/byte_io.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace dlcomp {

CompressedAllToAll::CompressedAllToAll(CompressedAllToAllConfig config)
    : config_(std::move(config)) {
  DLCOMP_CHECK_MSG(config_.pipeline_stages >= 1,
                   "pipeline_stages must be at least 1");
  if (config_.codec != nullptr) {
    throughput_ = calibrated_throughput(config_.codec->name());
  }
  scratch_.engine = std::make_unique<BlockEngine>(config_.codec, config_.pool);
}

CompressedAllToAll::PendingExchange&
CompressedAllToAll::PendingExchange::operator=(PendingExchange&& other) noexcept {
  if (this != &other) {
    owner_ = other.owner_;
    comm_ = other.comm_;
    recv_ = other.recv_;
    names_ = other.names_;
    groups_ = other.groups_;
    pending_ = std::move(other.pending_);
    stats_ = other.stats_;
    finished_ = other.finished_;
    other.finished_ = true;  // a moved-from exchange must never finish
  }
  return *this;
}

namespace {

/// u32 row_width | u32 distinct, in front of a distinct-row chunk's map.
constexpr std::size_t kDistinctHeaderBytes = 2 * sizeof(std::uint32_t);

/// Bits per map entry: ceil(log2 distinct), 0 when every row is one.
unsigned map_bits(std::size_t distinct) noexcept {
  return static_cast<unsigned>(std::bit_width(distinct - 1));
}

std::size_t map_bytes(std::size_t rows, std::size_t distinct) noexcept {
  return (rows * map_bits(distinct) + 7) / 8;
}

/// Runs body(i) for every i in [0, count), spread over the pool when
/// there is one.
template <typename Body>
void for_each_chunk(ThreadPool* pool, std::size_t count, const Body& body) {
  if (pool == nullptr || count < 2) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  pool->parallel_for(0, count, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

std::string from_rank(std::size_t chunk, std::size_t src) {
  return "chunk " + std::to_string(chunk) + " from rank " +
         std::to_string(src) + ": ";
}

}  // namespace

/// Directory layout prepended to each destination buffer:
///   u32 chunk_count (group 0 only; the total across all groups)
///   | u64 sizes[chunks in this group] | payload (streams back-to-back,
///   in chunk order).
/// Offsets are implied by prefix sums of sizes, so the directory stays
/// minimal (this is the per-destination metadata of the paper's stage 2).
/// A size's top bit (detail::kDistinctRowsFlag) marks a chunk in
/// distinct-row form (u32 row_width | u32 distinct | map | rows stream);
/// a chunk without it is the engine's stream of the whole chunk.
/// The sizes are reserved up front and patched after each chunk lands, so
/// streams compress straight into the send buffer. With one group
/// (monolithic) this is the pre-pipelining framing unchanged; with G
/// groups the bytes on the wire are *identical in total* -- the count
/// travels once and every chunk's u64 size travels exactly once.
std::span<const std::byte> detail::parse_chunk_directory(
    std::span<const std::byte> buffer, std::size_t src, std::size_t lo,
    std::size_t hi, std::size_t total_expected, bool first_group,
    std::vector<A2AChunkEntry>& entries) {
  const std::string from = "chunk directory from rank " + std::to_string(src);
  const std::size_t dir_bytes = (first_group ? sizeof(std::uint32_t) : 0) +
                                (hi - lo) * sizeof(std::uint64_t);
  if (buffer.size() < dir_bytes) {
    throw FormatError(from + ": " + std::to_string(buffer.size()) +
                      " bytes, shorter than its " + std::to_string(dir_bytes) +
                      "-byte directory");
  }
  ByteReader reader(buffer);
  if (first_group) {
    const auto count = reader.read<std::uint32_t>();
    if (count != total_expected) {
      throw FormatError(from + ": expected " + std::to_string(total_expected) +
                        " chunks, got " + std::to_string(count));
    }
  }
  const std::size_t payload_bytes = buffer.size() - dir_bytes;
  entries.clear();
  entries.reserve(hi - lo);
  std::size_t cursor = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const auto word = reader.read<std::uint64_t>();
    const std::uint64_t size = word & ~kDistinctRowsFlag;
    // Checked before adding, so wire-supplied sizes can never wrap the
    // cursor back into range.
    if (size > payload_bytes - cursor) {
      throw FormatError(from_rank(i, src) + "size " + std::to_string(size) +
                        " exceeds the " +
                        std::to_string(payload_bytes - cursor) +
                        " payload bytes left");
    }
    entries.push_back({cursor, static_cast<std::size_t>(size),
                       (word & kDistinctRowsFlag) != 0});
    cursor += static_cast<std::size_t>(size);
  }
  if (cursor != payload_bytes) {
    throw FormatError(from + ": sizes add up to " + std::to_string(cursor) +
                      " of " + std::to_string(payload_bytes) +
                      " payload bytes");
  }
  return buffer.subspan(dir_bytes);
}

void CompressedAllToAll::find_group_rows(
    const std::vector<std::vector<A2AChunkSpec>>& send, std::size_t g,
    std::size_t groups) const {
  std::vector<const A2AChunkSpec*>& chunks = scratch_.group_chunks;
  const std::size_t chunks_cap = chunks.capacity();
  chunks.clear();
  for (const auto& list : send) {
    const std::size_t lo = group_begin(list.size(), groups, g);
    const std::size_t hi = group_begin(list.size(), groups, g + 1);
    for (std::size_t i = lo; i < hi; ++i) chunks.push_back(&list[i]);
  }
  if (chunks.capacity() != chunks_cap) ++scratch_.grow_events;
  if (chunks.size() > scratch_.send_rows.size()) {
    const std::size_t cap = scratch_.send_rows.capacity();
    scratch_.send_rows.resize(chunks.size());
    if (scratch_.send_rows.capacity() != cap) ++scratch_.grow_events;
  }
  const bool gather = config_.codec != nullptr;
  for_each_chunk(config_.pool, chunks.size(), [&](std::size_t k) {
    const A2AChunkSpec& chunk = *chunks[k];
    SendRows& sr = scratch_.send_rows[k];
    const std::size_t before = sr.capacity_bytes();
    sr.distinct_rows = false;
    const std::size_t width = std::max<std::size_t>(1, chunk.params.vector_dim);
    const std::size_t n = chunk.data.size();
    const std::size_t rows = n / width;
    if (n % width == 0 && rows >= 2 && rows < UINT32_MAX &&
        width <= UINT32_MAX) {
      if (sr.map.size() < rows) sr.map.resize(rows);
      const auto map = std::span<std::uint32_t>(sr.map).first(rows);
      const std::size_t row_bytes = width * sizeof(float);
      const std::size_t distinct = detail::find_distinct_rows(
          chunk.data.data(), row_bytes, rows, &detail::hash_row_words,
          sr.table, map);
      if ((rows - distinct) * row_bytes >
          kDistinctHeaderBytes + map_bytes(rows, distinct)) {
        sr.distinct_rows = true;
        sr.width = width;
        sr.distinct = distinct;
      }
      // Codecs encode the gathered rows. The buffer is sized to the whole
      // chunk whatever the count, so its capacity does not track the batch.
      if (gather) {
        if (sr.rows.size() < n) sr.rows.resize(n);
        if (sr.distinct_rows) {
          std::size_t next = 0;
          for (std::size_t r = 0; r < rows; ++r) {
            if (map[r] != next) continue;
            std::memcpy(sr.rows.data() + next * width,
                        chunk.data.data() + r * width, row_bytes);
            ++next;
          }
        }
      }
    }
    sr.grew = sr.capacity_bytes() != before;
  });
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    if (scratch_.send_rows[k].grew) ++scratch_.grow_events;
  }
}

std::size_t CompressedAllToAll::pack_group(
    Communicator& comm, const std::vector<std::vector<A2AChunkSpec>>& send,
    std::size_t g, std::size_t groups, A2AStats& stats) const {
  const auto world = static_cast<std::size_t>(comm.world());

  DLCOMP_TRACE_SPAN("a2a/pack_group");
  WallTimer compress_timer;
  // Four phases. (0) Every chunk's distinct rows, one pool task per
  // chunk. (a) Serial framing — directories written, every chunk (or its
  // gathered distinct rows) registered with the engine (large chunks
  // split into blocks). (b) One flat parallel run over all blocks of all
  // destinations — parallelism scales with total block count, so a group
  // dominated by one huge chunk still uses the whole pool. (c) Serial
  // assembly — deterministic wire bytes, sizes patched. Raw chunks have
  // no blocks: (c) copies them, a distinct-row chunk's rows straight from
  // the caller's tensor.
  find_group_rows(send, g, groups);
  BlockEngine& engine = *scratch_.engine;
  engine.compress_begin();
  scratch_.packed_caps.resize(world);
  std::size_t k = 0;
  for (std::size_t d = 0; d < world; ++d) {
    std::vector<std::byte>& buf = scratch_.packed[d];
    scratch_.packed_caps[d] = buf.capacity();
    buf.clear();
    const auto& chunks = send[d];
    const std::size_t lo = group_begin(chunks.size(), groups, g);
    const std::size_t hi = group_begin(chunks.size(), groups, g + 1);
    const std::size_t sizes_at = g == 0 ? sizeof(std::uint32_t) : 0;
    buf.resize(sizes_at + (hi - lo) * sizeof(std::uint64_t));
    // Reserved for the chunks' floats, which raw streams never exceed and
    // compressed ones rarely do, so the capacity follows the chunk shapes
    // rather than how many rows repeat or how well they compress.
    std::size_t raw_bytes = buf.size();
    for (std::size_t i = lo; i < hi; ++i) {
      raw_bytes += chunks[i].data.size_bytes();
    }
    buf.reserve(raw_bytes);
    if (g == 0) {
      const auto count = static_cast<std::uint32_t>(chunks.size());
      std::memcpy(buf.data(), &count, sizeof(count));
    }
    for (std::size_t i = lo; i < hi; ++i, ++k) {
      const SendRows& sr = scratch_.send_rows[k];
      if (!sr.distinct_rows) {
        (void)engine.add_tensor(chunks[i].data, chunks[i].params);
      } else if (config_.codec != nullptr) {
        // Scratch sized for the whole chunk: the distinct count moves
        // with every batch, the chunk's shape does not.
        (void)engine.add_tensor(
            std::span<const float>(sr.rows).first(sr.distinct * sr.width),
            chunks[i].params, {}, chunks[i].data.size());
      }
    }
  }
  {
    DLCOMP_TRACE_SPAN("a2a/compress");
    engine.compress_run();
  }
  std::size_t slot = 0;
  k = 0;
  BitWriter& map_writer = scratch_.map_writer;
  for (std::size_t d = 0; d < world; ++d) {
    std::vector<std::byte>& buf = scratch_.packed[d];
    const auto& chunks = send[d];
    const std::size_t lo = group_begin(chunks.size(), groups, g);
    const std::size_t hi = group_begin(chunks.size(), groups, g + 1);
    const std::size_t sizes_at = g == 0 ? sizeof(std::uint32_t) : 0;
    for (std::size_t i = lo; i < hi; ++i, ++k) {
      const SendRows& sr = scratch_.send_rows[k];
      const std::size_t before = buf.size();
      std::uint64_t flag = 0;
      if (!sr.distinct_rows) {
        engine.append_stream(slot++, buf);
      } else {
        flag = detail::kDistinctRowsFlag;
        const std::size_t rows = chunks[i].data.size() / sr.width;
        append_pod(buf, static_cast<std::uint32_t>(sr.width));
        append_pod(buf, static_cast<std::uint32_t>(sr.distinct));
        const unsigned bits = map_bits(sr.distinct);
        const std::size_t writer_cap = map_writer.capacity_bytes();
        map_writer.reset();
        // Reserved for 32-bit entries, so the capacity follows the chunk
        // shape rather than the batch's distinct count.
        map_writer.reserve_bits(rows * 32);
        for (std::size_t r = 0; r < rows; ++r) map_writer.write(sr.map[r], bits);
        map_writer.finish_into(buf);
        if (map_writer.capacity_bytes() != writer_cap) ++scratch_.grow_events;
        if (config_.codec != nullptr) {
          engine.append_stream(slot++, buf);
        } else {
          const auto data = std::as_bytes(chunks[i].data);
          const std::size_t row_bytes = sr.width * sizeof(float);
          std::size_t next = 0;
          for (std::size_t r = 0; r < rows; ++r) {
            if (sr.map[r] != next) continue;
            const auto row = data.subspan(r * row_bytes, row_bytes);
            buf.insert(buf.end(), row.begin(), row.end());
            ++next;
          }
        }
      }
      const auto stream_bytes =
          static_cast<std::uint64_t>(buf.size() - before);
      const std::uint64_t word = stream_bytes | flag;
      std::memcpy(buf.data() + sizes_at + (i - lo) * sizeof(std::uint64_t),
                  &word, sizeof(word));
      if (chunks[i].tag != A2AChunkSpec::kNoTag) {
        scratch_.tag_wire[chunks[i].tag] += stream_bytes;
      }
    }
    if (buf.capacity() != scratch_.packed_caps[d]) {
      ++scratch_.grow_events;
    }
  }
  stats.compress_wall_seconds += compress_timer.seconds();

  std::size_t group_raw = 0;
  const auto me = static_cast<std::size_t>(comm.rank());
  for (std::size_t d = 0; d < world; ++d) {
    const auto& chunks = send[d];
    const std::size_t lo = group_begin(chunks.size(), groups, g);
    const std::size_t hi = group_begin(chunks.size(), groups, g + 1);
    for (std::size_t i = lo; i < hi; ++i) {
      group_raw += chunks[i].data.size_bytes();
    }
    stats.send_wire_bytes += scratch_.packed[d].size();
    // Running wire-stream CRC (finalized in finish()): only bytes that
    // actually cross the wire count, so the self chunk is skipped.
    if (d != me) {
      stats.wire_crc32 = crc32_update(stats.wire_crc32, scratch_.packed[d]);
    }
  }
  return group_raw;
}

void CompressedAllToAll::add_distinct_rows(std::span<const std::byte> stream,
                                           std::span<float> out,
                                           RecvRows& rows) const {
  if (stream.size() < kDistinctHeaderBytes) {
    throw FormatError("distinct-row chunk of " + std::to_string(stream.size()) +
                      " bytes is shorter than its " +
                      std::to_string(kDistinctHeaderBytes) + "-byte header");
  }
  ByteReader reader(stream);
  const std::size_t width = reader.read<std::uint32_t>();
  const std::size_t distinct = reader.read<std::uint32_t>();
  if (width == 0 || out.size() % width != 0) {
    throw FormatError("row width " + std::to_string(width) +
                      " does not divide the " + std::to_string(out.size()) +
                      "-float receive span");
  }
  const std::size_t count = out.size() / width;
  if (distinct == 0 || distinct >= count) {
    throw FormatError("distinct count " + std::to_string(distinct) +
                      " is not in [1, " + std::to_string(count) + ")");
  }
  const std::size_t packed_map = map_bytes(count, distinct);
  if (reader.remaining() < packed_map) {
    throw FormatError("row map of " + std::to_string(count) +
                      " rows truncated: " + std::to_string(reader.remaining()) +
                      " of " + std::to_string(packed_map) + " bytes");
  }
  // Every entry must be below the distinct count and in first-seen order
  // (at most one past the largest so far), which expand_group_rows'
  // in-place copy relies on.
  rows.map = stream.subspan(kDistinctHeaderBytes, packed_map);
  BitReader map(rows.map);
  const unsigned bits = map_bits(distinct);
  std::uint64_t next = 0;
  for (std::size_t r = 0; r < count; ++r) {
    const std::uint64_t entry = map.read(bits);
    if (entry >= distinct || entry > next) {
      throw FormatError("row map entry " + std::to_string(entry) + " at row " +
                        std::to_string(r) +
                        (entry >= distinct
                             ? " is not below the distinct count " +
                                   std::to_string(distinct)
                             : " skips first-seen index " +
                                   std::to_string(next)));
    }
    if (entry == next) ++next;
  }
  if (next != distinct) {
    throw FormatError("row map refers to " + std::to_string(next) + " of " +
                      std::to_string(distinct) + " distinct rows");
  }
  const auto rows_stream = stream.subspan(kDistinctHeaderBytes + packed_map);
  const auto head = out.first(distinct * width);
  if (config_.codec == nullptr) {
    if (rows_stream.size() != head.size_bytes()) {
      throw FormatError("raw stream: received " +
                        std::to_string(rows_stream.size()) +
                        " bytes, expected " +
                        std::to_string(head.size_bytes()));
    }
    rows.src = rows_stream;
  } else {
    scratch_.engine->add_stream(rows_stream, head, out.size());
    rows.src = std::as_bytes(head);
  }
  rows.out = out;
  rows.width = width;
  rows.distinct = distinct;
  rows.pending = true;
}

void CompressedAllToAll::expand_group_rows(std::size_t count) const {
  for_each_chunk(config_.pool, count, [&](std::size_t k) {
    const RecvRows& rows = scratch_.recv_rows[k];
    if (!rows.pending) return;
    // Last row first: in first-seen order row r's source index is at most
    // r, and every row that reads source j sits at or after row j, so a
    // codec's rows, decoded into the head of the span, are each read
    // before they are overwritten.
    const std::size_t row_bytes = rows.width * sizeof(float);
    const unsigned bits = map_bits(rows.distinct);
    BitReader map(rows.map);
    auto* out = reinterpret_cast<std::byte*>(rows.out.data());
    for (std::size_t r = rows.out.size() / rows.width; r-- > 0;) {
      map.set_bit_position(r * bits);
      const std::byte* from = rows.src.data() + map.read(bits) * row_bytes;
      std::byte* to = out + r * row_bytes;
      if (from != to) std::memcpy(to, from, row_bytes);
    }
  });
}

void CompressedAllToAll::land_group(
    Communicator& comm, PendingCollective& pending, std::size_t g,
    std::size_t groups, const std::vector<std::vector<std::span<float>>>& recv,
    const PhaseNames& names, A2AStats& stats) const {
  const auto world = static_cast<std::size_t>(comm.world());

  DLCOMP_TRACE_SPAN("a2a/land_group");
  const PendingCollective::Charge charge = pending.wait();
  stats.exposed_comm_seconds += charge.exposed_seconds;
  stats.hidden_comm_seconds += charge.hidden_seconds;
  const auto& received = pending.recv();

  // ---- Stage (4): decompress this group (parallel across sources,
  // chunks within a source in order; per-peer workspaces as in stage 1 —
  // the two stages never run concurrently, so sharing is safe).
  WallTimer decompress_timer;
  scratch_.dirs.resize(world);
  std::size_t group_recv_raw = 0;
  std::size_t group_chunks = 0;
  for (std::size_t s = 0; s < world; ++s) {
    const std::size_t lo = group_begin(recv[s].size(), groups, g);
    const std::size_t hi = group_begin(recv[s].size(), groups, g + 1);
    RecvDirectory& dir = scratch_.dirs[s];
    dir.payload = detail::parse_chunk_directory(
        received[s], s, lo, hi, recv[s].size(), g == 0, dir.entries);
    for (std::size_t i = lo; i < hi; ++i) {
      group_recv_raw += recv[s][i].size() * sizeof(float);
    }
    group_chunks += hi - lo;
  }
  if (group_chunks > scratch_.recv_rows.size()) {
    const std::size_t cap = scratch_.recv_rows.capacity();
    scratch_.recv_rows.resize(group_chunks);
    if (scratch_.recv_rows.capacity() != cap) ++scratch_.grow_events;
  }

  {
    // Register every chunk stream of every source with the engine
    // (blocked streams expand into per-block tasks) and run one flat
    // parallel pass — the multi-stream decompression of the paper,
    // extended below message granularity. Distinct-row chunks then
    // expand into their receive spans, one pool task per chunk.
    DLCOMP_TRACE_SPAN("a2a/decompress");
    BlockEngine& engine = *scratch_.engine;
    engine.decompress_begin();
    std::size_t k = 0;
    std::size_t expand = 0;
    for (std::size_t s = 0; s < world; ++s) {
      const RecvDirectory& dir = scratch_.dirs[s];
      const std::size_t lo = group_begin(recv[s].size(), groups, g);
      const std::size_t hi = group_begin(recv[s].size(), groups, g + 1);
      for (std::size_t i = lo; i < hi; ++i, ++k) {
        const detail::A2AChunkEntry& entry = dir.entries[i - lo];
        const auto stream = dir.payload.subspan(entry.offset, entry.size);
        RecvRows& rows = scratch_.recv_rows[k];
        rows.pending = false;
        try {
          if (entry.distinct_rows) {
            add_distinct_rows(stream, recv[s][i], rows);
            ++expand;
          } else {
            engine.add_stream(stream, recv[s][i]);
          }
        } catch (const FormatError& e) {
          throw FormatError(from_rank(i, s) + e.what());
        }
      }
    }
    engine.decompress_run();
    if (expand > 0) expand_group_rows(group_chunks);
  }
  stats.decompress_wall_seconds += decompress_timer.seconds();

  if (config_.charge_modeled_time && config_.codec != nullptr) {
    const double modeled = config_.device.codec_seconds(
        1, group_recv_raw, throughput_.decompress_bps);
    stats.modeled_decompress_seconds += modeled;
    comm.advance_compute(names.decompress, modeled);
  }
}

CompressedAllToAll::PendingExchange CompressedAllToAll::exchange_begin(
    Communicator& comm, const std::vector<std::vector<A2AChunkSpec>>& send,
    const std::vector<std::vector<std::span<float>>>& recv,
    std::string_view phase) const {
  const auto world = static_cast<std::size_t>(comm.world());
  DLCOMP_CHECK_MSG(send.size() == world, "need one chunk list per destination");
  DLCOMP_CHECK_MSG(recv.size() == world, "need one output list per source");

  const PhaseNames& names = interned_phase(phase);
  const std::size_t groups = config_.pipeline_stages;

  PendingExchange ex;
  ex.owner_ = this;
  ex.comm_ = &comm;
  ex.recv_ = &recv;
  ex.names_ = &names;
  ex.groups_ = groups;
  ex.finished_ = false;
  ex.stats_.wire_crc32 = crc32_init();

  scratch_.packed.resize(world);

  // Size the per-tag accumulators to the high-water tag id.
  std::size_t tags_needed = 0;
  for (std::size_t d = 0; d < world; ++d) {
    for (const auto& chunk : send[d]) {
      ex.stats_.send_raw_bytes += chunk.data.size_bytes();
      if (chunk.tag != A2AChunkSpec::kNoTag) {
        tags_needed = std::max<std::size_t>(tags_needed, chunk.tag + 1);
      }
    }
  }
  if (tags_needed > scratch_.tag_raw.size()) {
    scratch_.tag_raw.resize(tags_needed, 0);
    scratch_.tag_wire.resize(tags_needed, 0);
    ++scratch_.grow_events;
  }
  for (std::size_t d = 0; d < world; ++d) {
    for (const auto& chunk : send[d]) {
      if (chunk.tag != A2AChunkSpec::kNoTag) {
        scratch_.tag_raw[chunk.tag] += chunk.data.size_bytes();
      }
    }
  }

  // ---- Stages (1)-(3), group by group. Group g+1 compresses while group
  // g's payload is on the simulated wire; group g decompresses while
  // group g+1 is in flight. Groups serialize on the link: stage g may not
  // start before stage g-1's completion (`not_before`), which every rank
  // computes identically.
  PendingCollective in_flight;
  double link_free_at = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t group_raw = pack_group(comm, send, g, groups, ex.stats_);

    // Modelled codec time for this group (one fused kernel per group,
    // writing into the send buffer per the buffer optimization). Charged
    // before the group is issued, so it overlaps the previous group's
    // wire time.
    if (config_.charge_modeled_time && config_.codec != nullptr) {
      const double modeled = config_.device.codec_seconds(
          1, group_raw, throughput_.compress_bps);
      ex.stats_.modeled_compress_seconds += modeled;
      comm.advance_compute(names.compress, modeled);
    }

    PendingCollective issued =
        comm.all_to_all_v_async(scratch_.packed, phase, link_free_at);
    link_free_at = issued.completion_seconds();
    if (g > 0) {
      land_group(comm, in_flight, g - 1, groups, recv, names, ex.stats_);
    }
    in_flight = std::move(issued);
  }
  ex.pending_ = std::move(in_flight);
  return ex;
}

A2AStats CompressedAllToAll::PendingExchange::finish() {
  DLCOMP_CHECK_MSG(!finished_, "exchange already finished");
  finished_ = true;
  owner_->land_group(*comm_, pending_, groups_ - 1, groups_, *recv_, *names_,
                     stats_);
  stats_.wire_crc32 = crc32_final(stats_.wire_crc32);
  return stats_;
}

A2AStats CompressedAllToAll::exchange(
    Communicator& comm, const std::vector<std::vector<A2AChunkSpec>>& send,
    const std::vector<std::vector<std::span<float>>>& recv,
    std::string_view phase) const {
  PendingExchange ex = exchange_begin(comm, send, recv, phase);
  return ex.finish();
}

std::uint64_t CompressedAllToAll::workspace_grow_events() const {
  return scratch_.grow_events + scratch_.engine->grow_events();
}

std::vector<CompressedAllToAll::TagBytes> CompressedAllToAll::per_tag_bytes()
    const {
  std::vector<TagBytes> out(scratch_.tag_raw.size());
  for (std::size_t t = 0; t < out.size(); ++t) {
    out[t].raw = scratch_.tag_raw[t];
    out[t].wire = scratch_.tag_wire[t];
  }
  return out;
}

std::size_t CompressedAllToAll::scratch_capacity_bytes() const {
  std::size_t total = scratch_.engine->capacity_bytes();
  for (const auto& buf : scratch_.packed) total += buf.capacity();
  for (const auto& dir : scratch_.dirs) {
    total += dir.entries.capacity() * sizeof(detail::A2AChunkEntry);
  }
  for (const auto& rows : scratch_.send_rows) total += rows.capacity_bytes();
  total += scratch_.recv_rows.capacity() * sizeof(RecvRows) +
           scratch_.group_chunks.capacity() * sizeof(const A2AChunkSpec*);
  return total + scratch_.map_writer.capacity_bytes();
}

}  // namespace dlcomp
