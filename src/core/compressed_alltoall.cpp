#include "core/compressed_alltoall.hpp"

#include <algorithm>
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

/// Directory layout prepended to each destination buffer:
///   u32 chunk_count (group 0 only; the total across all groups)
///   | u64 sizes[chunks in this group] | payload (streams back-to-back,
///   in chunk order).
/// Offsets are implied by prefix sums of sizes, so the directory stays
/// minimal (this is the per-destination metadata of the paper's stage 2).
/// The sizes are reserved up front and patched after each chunk lands, so
/// streams compress straight into the send buffer. With one group
/// (monolithic) this is the pre-pipelining framing unchanged; with G
/// groups the bytes on the wire are *identical in total* -- the count
/// travels once and every chunk's u64 size travels exactly once.
void CompressedAllToAll::read_group_directory_into(
    Communicator& comm, std::span<const std::byte> buffer, RecvDirectory& dir,
    std::size_t src, std::size_t lo, std::size_t hi,
    std::size_t total_expected, bool first_group) const {
  ByteReader reader(buffer);
  if (first_group) {
    const auto count = reader.read<std::uint32_t>();
    DLCOMP_CHECK_MSG(count == total_expected,
                     "rank " << comm.rank() << " expected " << total_expected
                             << " chunks from " << src << ", got " << count);
  }
  dir.offsets.clear();
  dir.sizes.clear();
  dir.offsets.reserve(hi - lo);
  dir.sizes.reserve(hi - lo);
  std::size_t cursor = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const auto size = static_cast<std::size_t>(reader.read<std::uint64_t>());
    dir.offsets.push_back(cursor);
    dir.sizes.push_back(size);
    cursor += size;
  }
  dir.payload = buffer.subspan(reader.position());
  if (dir.payload.size() != cursor) {
    throw FormatError("all-to-all chunk directory inconsistent with payload");
  }
}

std::size_t CompressedAllToAll::pack_group(
    Communicator& comm, const std::vector<std::vector<A2AChunkSpec>>& send,
    std::size_t g, std::size_t groups, A2AStats& stats) const {
  const auto world = static_cast<std::size_t>(comm.world());

  DLCOMP_TRACE_SPAN("a2a/pack_group");
  WallTimer compress_timer;
  // Three phases. (a) Serial framing — directories written, every chunk
  // registered with the engine (large chunks split into blocks). (b) One
  // flat parallel run over all blocks of all destinations — parallelism
  // scales with total block count, so a group dominated by one huge chunk
  // still uses the whole pool. (c) Serial assembly — deterministic wire
  // bytes, sizes patched. Raw chunks have no blocks: (c) copies them.
  BlockEngine& engine = *scratch_.engine;
  engine.compress_begin();
  scratch_.packed_caps.resize(world);
  for (std::size_t d = 0; d < world; ++d) {
    std::vector<std::byte>& buf = scratch_.packed[d];
    scratch_.packed_caps[d] = buf.capacity();
    buf.clear();
    const auto& chunks = send[d];
    const std::size_t lo = group_begin(chunks.size(), groups, g);
    const std::size_t hi = group_begin(chunks.size(), groups, g + 1);
    const std::size_t sizes_at = g == 0 ? sizeof(std::uint32_t) : 0;
    buf.resize(sizes_at + (hi - lo) * sizeof(std::uint64_t));
    if (g == 0) {
      const auto count = static_cast<std::uint32_t>(chunks.size());
      std::memcpy(buf.data(), &count, sizeof(count));
    }
    for (std::size_t i = lo; i < hi; ++i) {
      (void)engine.add_tensor(chunks[i].data, chunks[i].params);
    }
  }
  {
    DLCOMP_TRACE_SPAN("a2a/compress");
    engine.compress_run();
  }
  std::size_t slot = 0;
  for (std::size_t d = 0; d < world; ++d) {
    std::vector<std::byte>& buf = scratch_.packed[d];
    const auto& chunks = send[d];
    const std::size_t lo = group_begin(chunks.size(), groups, g);
    const std::size_t hi = group_begin(chunks.size(), groups, g + 1);
    const std::size_t sizes_at = g == 0 ? sizeof(std::uint32_t) : 0;
    for (std::size_t i = lo; i < hi; ++i, ++slot) {
      const std::size_t before = buf.size();
      engine.append_stream(slot, buf);
      const auto stream_bytes =
          static_cast<std::uint64_t>(buf.size() - before);
      std::memcpy(buf.data() + sizes_at + (i - lo) * sizeof(std::uint64_t),
                  &stream_bytes, sizeof(stream_bytes));
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
  for (std::size_t s = 0; s < world; ++s) {
    const std::size_t lo = group_begin(recv[s].size(), groups, g);
    const std::size_t hi = group_begin(recv[s].size(), groups, g + 1);
    read_group_directory_into(comm, received[s], scratch_.dirs[s], s, lo, hi,
                              recv[s].size(), g == 0);
    for (std::size_t i = lo; i < hi; ++i) {
      group_recv_raw += recv[s][i].size() * sizeof(float);
    }
  }

  {
    // Register every chunk stream of every source with the engine
    // (blocked streams expand into per-block tasks) and run one flat
    // parallel pass — the multi-stream decompression of the paper,
    // extended below message granularity.
    DLCOMP_TRACE_SPAN("a2a/decompress");
    BlockEngine& engine = *scratch_.engine;
    engine.decompress_begin();
    for (std::size_t s = 0; s < world; ++s) {
      const RecvDirectory& dir = scratch_.dirs[s];
      const std::size_t lo = group_begin(recv[s].size(), groups, g);
      const std::size_t hi = group_begin(recv[s].size(), groups, g + 1);
      for (std::size_t i = lo; i < hi; ++i) {
        try {
          engine.add_stream(
              dir.payload.subspan(dir.offsets[i - lo], dir.sizes[i - lo]),
              recv[s][i]);
        } catch (const FormatError& e) {
          throw FormatError("chunk " + std::to_string(i) + " from rank " +
                            std::to_string(s) + ": " + e.what());
        }
      }
    }
    engine.decompress_run();
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
    total += dir.offsets.capacity() * sizeof(std::size_t) +
             dir.sizes.capacity() * sizeof(std::size_t);
  }
  return total;
}

}  // namespace dlcomp
