#include "compress/chunked.hpp"

#include <algorithm>
#include <cstring>

#include "common/byte_io.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace dlcomp {

namespace {

/// "DLBK" little-endian; distinct from StreamHeader::kMagic ("DLCP") so
/// a container can never parse as a codec stream or vice versa.
constexpr std::uint32_t kBlockMagic = 0x4B424C44u;
constexpr std::uint8_t kBlockVersion = 1;
/// u32 magic | u8 version | u8 + u16 reserved | u64 element_count |
/// u64 block_elems | u32 block_count | u32 reserved.
constexpr std::size_t kBlockHeaderBytes = 32;

struct BlockHeader {
  std::uint64_t element_count = 0;
  std::uint64_t block_elems = 0;
  std::uint32_t block_count = 0;
};

BlockHeader parse_block_header(ByteReader& reader) {
  BlockHeader h;
  if (reader.read<std::uint32_t>() != kBlockMagic) {
    throw FormatError("bad block-container magic");
  }
  if (reader.read<std::uint8_t>() != kBlockVersion) {
    throw FormatError("unsupported block-container version");
  }
  (void)reader.read<std::uint8_t>();
  (void)reader.read<std::uint16_t>();
  h.element_count = reader.read<std::uint64_t>();
  h.block_elems = reader.read<std::uint64_t>();
  h.block_count = reader.read<std::uint32_t>();
  (void)reader.read<std::uint32_t>();
  if (h.block_elems == 0 || h.block_count < 2 ||
      h.element_count <= h.block_elems) {
    throw FormatError("block-container geometry invalid");
  }
  const std::uint64_t expected_blocks =
      (h.element_count + h.block_elems - 1) / h.block_elems;
  if (expected_blocks != h.block_count) {
    throw FormatError("block-container block count inconsistent");
  }
  return h;
}

/// Upper bound on one codec stream's size, for the deterministic staging
/// layout: headers are 32 bytes plus small codec-specific prefixes;
/// payloads are bounded by ~33/32 of raw size for the bit-packed codecs,
/// by 9/8 for LZSS, and by raw size + table for Huffman with a degenerate
/// alphabet (every symbol unique: <= 6 bytes of table per element plus
/// 33-bit codes). 4x raw + 1 KiB dominates every case.
std::size_t worst_case_stream_bytes(std::size_t element_count) {
  return 4 * element_count * sizeof(float) + 1024;
}

/// Validates a DLBK container against its pre-sized output (header,
/// element count, directory sum == payload size), then calls
/// visit(block_stream, block_out) for every block in order. Nothing is
/// visited unless the whole container checks out; any inconsistency
/// throws FormatError.
template <typename Visit>
void for_each_block(std::span<const std::byte> stream, std::span<float> out,
                    const Visit& visit) {
  ByteReader reader(stream);
  const BlockHeader h = parse_block_header(reader);
  if (h.element_count != out.size()) {
    throw FormatError("block-container element count mismatch");
  }
  std::size_t payload_bytes = 0;
  const std::size_t dir_at = reader.position();
  for (std::uint32_t b = 0; b < h.block_count; ++b) {
    const auto bytes = reader.read<std::uint64_t>();
    if (bytes > stream.size() - payload_bytes) {
      throw FormatError("block-container directory inconsistent with payload");
    }
    payload_bytes += static_cast<std::size_t>(bytes);
  }
  if (reader.remaining() != payload_bytes) {
    throw FormatError("block-container directory inconsistent with payload");
  }
  ByteReader dir(stream.subspan(dir_at));
  std::size_t cursor = reader.position();
  std::size_t elem = 0;
  for (std::uint32_t b = 0; b < h.block_count; ++b) {
    const auto bytes = static_cast<std::size_t>(dir.read<std::uint64_t>());
    const std::size_t count = std::min<std::size_t>(
        h.block_elems, static_cast<std::size_t>(h.element_count) - elem);
    visit(stream.subspan(cursor, bytes), out.subspan(elem, count));
    cursor += bytes;
    elem += count;
  }
}

}  // namespace

// ------------------------------------------------------------ BlockEngine

BlockEngine::BlockEngine(const Compressor& codec, ThreadPool* pool,
                         std::size_t block_elems)
    : codec_(codec), pool_(pool), block_elems_(block_elems) {
  DLCOMP_CHECK_MSG(block_elems_ > 0, "block size must be positive");
  // Fixed lane count: 4x the pool width matches parallel_for's split, so
  // every lane's contiguous task share lands on one pool block. Lane l
  // always processes the same tasks with the same workspace, which is
  // what makes grow events (not just output bytes) deterministic.
  const std::size_t lane_count =
      pool_ != nullptr ? std::max<std::size_t>(1, 4 * pool_->thread_count())
                       : 1;
  lanes_.reserve(lane_count);
  for (std::size_t l = 0; l < lane_count; ++l) {
    lanes_.push_back(std::make_unique<CompressionWorkspace>());
    ++grow_events_;
  }
  lane_errors_.resize(lane_count);
}

template <typename Body>
void BlockEngine::run_lanes(std::size_t count, const Body& body) {
  const std::size_t lane_count = lanes_.size();
  std::fill(lane_errors_.begin(), lane_errors_.end(), std::exception_ptr());
  auto run_lane = [&](std::size_t l) {
    const std::size_t begin = count * l / lane_count;
    const std::size_t end = count * (l + 1) / lane_count;
    try {
      for (std::size_t i = begin; i < end; ++i) body(i, *lanes_[l]);
    } catch (...) {
      lane_errors_[l] = std::current_exception();
    }
  };
  if (pool_ != nullptr && count > 1 && lane_count > 1) {
    pool_->parallel_for(0, lane_count, 1,
                        [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t l = lo; l < hi; ++l) run_lane(l);
                        });
  } else {
    for (std::size_t l = 0; l < lane_count; ++l) run_lane(l);
  }
  for (const auto& error : lane_errors_) {
    if (error) std::rethrow_exception(error);
  }
}

void BlockEngine::compress_begin() {
  slots_.clear();
  tasks_.clear();
  pending_data_.clear();
  pending_params_.clear();
  pending_recon_.clear();
  staging_cursor_ = 0;
}

std::size_t BlockEngine::add_tensor(std::span<const float> data,
                                    const CompressParams& params,
                                    std::span<float> recon) {
  DLCOMP_CHECK_MSG(recon.empty() || recon.size() == data.size(),
                   "reconstruction span must match the input length");
  Slot slot;
  slot.first_task = tasks_.size();
  slot.element_count = data.size();

  // Range-relative bounds resolve over the whole tensor before the
  // split, so every block quantizes with the same step as a monolithic
  // encode would.
  CompressParams block_params = params;
  if (params.eb_mode == EbMode::kRangeRelative) {
    block_params.error_bound = resolve_error_bound(data, params);
    block_params.eb_mode = EbMode::kAbsolute;
  }

  // Blocks align to vector_dim so Lorenzo rows / vector-LZ patterns
  // never straddle a boundary.
  const std::size_t dim = std::max<std::size_t>(1, params.vector_dim);
  std::size_t block_elems = std::max(block_elems_ / dim * dim, dim);
  slot.blocked = data.size() > block_elems;
  slot.block_elems = block_elems;
  slot.task_count =
      slot.blocked ? (data.size() + block_elems - 1) / block_elems : 1;

  const std::size_t slots_cap = slots_.capacity();
  const std::size_t tasks_cap = tasks_.capacity();
  for (std::size_t b = 0; b < slot.task_count; ++b) {
    CompressTask task;
    task.slot = slots_.size();
    task.elem_begin = slot.blocked ? b * block_elems : 0;
    task.elem_count = slot.blocked ? std::min(block_elems,
                                              data.size() - task.elem_begin)
                                   : data.size();
    task.staging_offset = staging_cursor_;
    staging_cursor_ += worst_case_stream_bytes(task.elem_count);
    tasks_.push_back(task);
  }
  slots_.push_back(slot);
  pending_data_.push_back(data);
  pending_params_.push_back(block_params);
  pending_recon_.push_back(recon);
  note_grow(slots_cap, slots_.capacity());
  note_grow(tasks_cap, tasks_.capacity());
  return slots_.size() - 1;
}

void BlockEngine::compress_run() {
  const std::size_t staging_cap = staging_.capacity();
  staging_.resize(staging_cursor_);
  note_grow(staging_cap, staging_.capacity());

  run_lanes(tasks_.size(), [&](std::size_t i, CompressionWorkspace& ws) {
    CompressTask& task = tasks_[i];
    const std::span<const float> data =
        pending_data_[task.slot].subspan(task.elem_begin, task.elem_count);
    std::vector<std::byte>& scratch = ws.caller_stream();
    scratch.clear();
    codec_.compress(data, pending_params_[task.slot], scratch, ws);
    DLCOMP_CHECK(scratch.size() <= worst_case_stream_bytes(task.elem_count));
    std::memcpy(staging_.data() + task.staging_offset, scratch.data(),
                scratch.size());
    task.bytes = scratch.size();
    const std::span<float> recon = pending_recon_[task.slot];
    if (!recon.empty()) {
      codec_.decompress(scratch, recon.subspan(task.elem_begin,
                                               task.elem_count),
                        ws);
    }
  });
  blocks_compressed_ += tasks_.size();
  MetricsRegistry::global()
      .counter("dlcomp_codec_blocks_compressed_total")
      .add(tasks_.size());
  pending_data_.clear();
  pending_params_.clear();
  pending_recon_.clear();
}

std::size_t BlockEngine::stream_bytes(std::size_t slot_index) const {
  const Slot& slot = slots_.at(slot_index);
  std::size_t payload = 0;
  for (std::size_t b = 0; b < slot.task_count; ++b) {
    payload += tasks_[slot.first_task + b].bytes;
  }
  if (!slot.blocked) return payload;
  return kBlockHeaderBytes + slot.task_count * sizeof(std::uint64_t) + payload;
}

void BlockEngine::append_stream(std::size_t slot_index,
                                std::vector<std::byte>& out) const {
  const Slot& slot = slots_.at(slot_index);
  if (slot.blocked) {
    append_pod(out, kBlockMagic);
    append_pod(out, kBlockVersion);
    append_pod(out, std::uint8_t{0});
    append_pod(out, std::uint16_t{0});
    append_pod(out, static_cast<std::uint64_t>(slot.element_count));
    append_pod(out, static_cast<std::uint64_t>(slot.block_elems));
    append_pod(out, static_cast<std::uint32_t>(slot.task_count));
    append_pod(out, std::uint32_t{0});
    for (std::size_t b = 0; b < slot.task_count; ++b) {
      append_pod(out,
                 static_cast<std::uint64_t>(tasks_[slot.first_task + b].bytes));
    }
  }
  for (std::size_t b = 0; b < slot.task_count; ++b) {
    const CompressTask& task = tasks_[slot.first_task + b];
    const auto* p = staging_.data() + task.staging_offset;
    out.insert(out.end(), p, p + task.bytes);
  }
}

void BlockEngine::decompress_begin() { decode_tasks_.clear(); }

void BlockEngine::add_stream(std::span<const std::byte> stream,
                             std::span<float> out) {
  const std::size_t cap = decode_tasks_.capacity();
  if (is_blocked(stream)) {
    for_each_block(stream, out, [&](std::span<const std::byte> block,
                                    std::span<float> block_out) {
      decode_tasks_.push_back({block, block_out});
    });
  } else {
    decode_tasks_.push_back({stream, out});
  }
  note_grow(cap, decode_tasks_.capacity());
}

void BlockEngine::decompress_run() {
  run_lanes(decode_tasks_.size(),
            [&](std::size_t i, CompressionWorkspace& ws) {
              const DecompressTask& task = decode_tasks_[i];
              codec_.decompress(task.stream, task.out, ws);
            });
  blocks_decompressed_ += decode_tasks_.size();
  MetricsRegistry::global()
      .counter("dlcomp_codec_blocks_decompressed_total")
      .add(decode_tasks_.size());
}

bool BlockEngine::is_blocked(std::span<const std::byte> stream) noexcept {
  if (stream.size() < sizeof(std::uint32_t)) return false;
  std::uint32_t magic = 0;
  std::memcpy(&magic, stream.data(), sizeof(magic));
  return magic == kBlockMagic;
}

std::size_t BlockEngine::blocked_element_count(
    std::span<const std::byte> stream) {
  ByteReader reader(stream);
  return static_cast<std::size_t>(parse_block_header(reader).element_count);
}

std::uint64_t BlockEngine::grow_events() const {
  std::uint64_t total = grow_events_;
  for (const auto& ws : lanes_) total += ws->grow_events();
  return total;
}

std::size_t BlockEngine::capacity_bytes() const {
  std::size_t total = staging_.capacity() +
                      slots_.capacity() * sizeof(Slot) +
                      tasks_.capacity() * sizeof(CompressTask) +
                      decode_tasks_.capacity() * sizeof(DecompressTask);
  for (const auto& ws : lanes_) total += ws->capacity_bytes();
  return total;
}

double blocked_decompress(const Compressor& codec,
                          std::span<const std::byte> stream,
                          std::span<float> out, CompressionWorkspace& ws) {
  if (!BlockEngine::is_blocked(stream)) {
    return codec.decompress(stream, out, ws);
  }
  WallTimer timer;
  for_each_block(stream, out, [&](std::span<const std::byte> block,
                                  std::span<float> block_out) {
    codec.decompress(block, block_out, ws);
  });
  return timer.seconds();
}

}  // namespace dlcomp
