#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "compress/registry.hpp"
#include "compress/workspace.hpp"

namespace dlcomp {

namespace {

constexpr std::size_t kMaxChainDepth = 1024;

/// "No engine slot" marker for tables whose payload is empty (nothing to
/// compress; stored as storage 0 with zero bytes).
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

std::uint64_t make_checkpoint_id(std::uint64_t seed, std::uint64_t iteration,
                                 std::uint64_t save_index) {
  std::uint64_t state = seed ^ (iteration * 0x9E3779B97F4A7C15ULL);
  const std::uint64_t a = splitmix64(state);
  state ^= save_index + 0xD1B54A32D192ED03ULL;
  return splitmix64(state) ^ a;
}

std::size_t bitmap_bytes(std::size_t rows) { return (rows + 7) / 8; }

bool bitmap_get(std::span<const std::byte> bitmap, std::size_t row) {
  return (static_cast<std::uint8_t>(bitmap[row / 8]) >> (row % 8)) & 1u;
}

void bitmap_set(std::span<std::byte> bitmap, std::size_t row) {
  bitmap[row / 8] = static_cast<std::byte>(
      static_cast<std::uint8_t>(bitmap[row / 8]) | (1u << (row % 8)));
}

/// A value buffer encoded for storage.
struct EncodedValues {
  std::vector<std::byte> bytes;
  std::uint8_t storage = 0;  ///< 0 raw float32, 1 codec stream
};

std::vector<float> decode_values(const std::string& codec_name,
                                 std::uint8_t storage,
                                 std::span<const std::byte> bytes,
                                 std::size_t expected_count) {
  // Validate sizes before allocating so a crafted count fails cleanly
  // instead of attempting a huge allocation.
  if (expected_count > std::numeric_limits<std::size_t>::max() / sizeof(float)) {
    throw FormatError("checkpoint element count overflows byte size");
  }
  const Compressor* codec = nullptr;  // storage 0: raw float32
  if (storage != 0) {
    if (codec_name.empty()) {
      throw FormatError("checkpoint stream payload without a codec name");
    }
    if (decompressed_count(bytes) != expected_count) {
      throw FormatError("checkpoint stream element count mismatch");
    }
    codec = &get_compressor(codec_name);
  } else if (bytes.size() != expected_count * sizeof(float)) {
    throw FormatError("checkpoint raw table payload has wrong size");
  }
  // The payload may be a blocked ("DLBK") container when the writer split
  // a large table across its pool; blocked_decompress handles every form.
  // A thread runs one per-table task at a time, so the task borrows
  // that thread's workspace.
  std::vector<float> values(expected_count);
  blocked_decompress(codec, bytes, values, thread_local_workspace());
  return values;
}

/// rows * dim as size_t, rejecting products that would wrap (crafted
/// headers could otherwise defeat every downstream size check).
std::size_t checked_element_count(std::uint64_t rows, std::uint32_t dim) {
  if (rows != 0 && dim != 0 &&
      rows > std::numeric_limits<std::size_t>::max() / dim) {
    throw FormatError("checkpoint table dimensions overflow");
  }
  return static_cast<std::size_t>(rows) * dim;
}

std::vector<std::byte> serialize_mlp(Mlp& mlp) {
  std::vector<std::byte> payload;
  const auto views = mlp.param_views();
  append_pod(payload, static_cast<std::uint32_t>(views.size()));
  for (const auto view : views) {
    append_pod(payload, static_cast<std::uint64_t>(view.size()));
    append_pod_span(payload, std::span<const float>(view));
  }
  return payload;
}

std::vector<std::vector<float>> parse_mlp(std::span<const std::byte> payload) {
  ByteReader reader(payload);
  const auto view_count = reader.read<std::uint32_t>();
  std::vector<std::vector<float>> views(view_count);
  for (auto& view : views) {
    const auto count = reader.read<std::uint64_t>();
    view.resize(count);
    reader.read_span(std::span<float>(view));
  }
  if (reader.remaining() != 0) {
    throw FormatError("trailing bytes in checkpoint MLP section");
  }
  return views;
}

void apply_mlp(const std::vector<std::vector<float>>& stored, Mlp& mlp,
               const char* which) {
  const auto views = mlp.param_views();
  DLCOMP_CHECK_MSG(stored.size() == views.size(),
                   which << " MLP has " << views.size()
                         << " parameter views, checkpoint has "
                         << stored.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    DLCOMP_CHECK_MSG(stored[i].size() == views[i].size(),
                     which << " MLP view " << i << " size mismatch");
    std::copy(stored[i].begin(), stored[i].end(), views[i].begin());
  }
}

/// Runs `body(t)` for every table, on the pool when one is available.
/// An exception from the body reaches the caller; on the pool it is the
/// lowest-indexed failing table's (ThreadPool::parallel_for's rule).
void for_each_table(ThreadPool* pool, std::size_t count,
                    const std::function<void(std::size_t)>& body) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t t = 0; t < count; ++t) body(t);
    return;
  }
  pool->parallel_for(0, count, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) body(t);
  });
}

/// Emits the file header plus the meta and MLP sections shared by full
/// and delta containers (3 sections); returns the section_count patch
/// offset. Keeping one emission path means format changes cannot apply
/// to one container kind and miss the other.
std::size_t begin_container(std::vector<std::byte>& out,
                            const CkptHeader& header,
                            const std::string& codec,
                            const std::string& parent_file,
                            const ModelState& state) {
  const std::size_t count_at = append_ckpt_header(out, header);
  std::vector<std::byte> meta;
  append_string(meta, codec);
  append_pod(meta, static_cast<std::uint8_t>(state.opt_kind));
  append_string(meta, parent_file);
  append_pod(meta, static_cast<std::uint32_t>(state.tables.size()));
  append_section(out, CkptSection::kMeta, 0, meta);
  append_section(out, CkptSection::kMlpBottom, 0, serialize_mlp(*state.bottom));
  append_section(out, CkptSection::kMlpTop, 0, serialize_mlp(*state.top));
  return count_at;
}

/// Sections of one container, parsed but not yet decoded.
struct RawContainer {
  CkptHeader header;
  std::string codec;
  EmbeddingOptimizerKind opt_kind = EmbeddingOptimizerKind::kSgd;
  std::string parent_file;
  std::size_t num_tables = 0;
  std::vector<std::vector<float>> bottom_params;
  std::vector<std::vector<float>> top_params;
  std::vector<SectionView> table_sections;  ///< per table id
  std::vector<SectionView> opt_sections;    ///< per table id (may be empty)
};

RawContainer parse_container(std::span<const std::byte> file) {
  ByteReader reader(file);
  RawContainer raw;
  raw.header = parse_ckpt_header(reader);

  bool meta_seen = false;
  bool bottom_seen = false;
  bool top_seen = false;
  std::vector<SectionView> tables;
  std::vector<SectionView> opts;
  for (std::uint32_t s = 0; s < raw.header.section_count; ++s) {
    const SectionView section = read_section(reader);
    switch (section.type) {
      case CkptSection::kMeta: {
        if (meta_seen) throw FormatError("duplicate checkpoint meta section");
        ByteReader meta(section.payload);
        raw.codec = read_string(meta);
        raw.opt_kind = static_cast<EmbeddingOptimizerKind>(
            meta.read<std::uint8_t>());
        raw.parent_file = read_string(meta);
        raw.num_tables = meta.read<std::uint32_t>();
        meta_seen = true;
        break;
      }
      case CkptSection::kMlpBottom:
        if (bottom_seen) throw FormatError("duplicate bottom MLP section");
        raw.bottom_params = parse_mlp(section.payload);
        bottom_seen = true;
        break;
      case CkptSection::kMlpTop:
        if (top_seen) throw FormatError("duplicate top MLP section");
        raw.top_params = parse_mlp(section.payload);
        top_seen = true;
        break;
      case CkptSection::kTableFull:
      case CkptSection::kTableDelta:
        tables.push_back(section);
        break;
      case CkptSection::kOptState:
      case CkptSection::kOptDelta:
        opts.push_back(section);
        break;
    }
  }
  if (!meta_seen) throw FormatError("checkpoint has no meta section");
  // The header's section_count is not CRC-protected; reject trailing
  // bytes so a tampered count cannot silently drop sections.
  if (reader.remaining() != 0) {
    throw FormatError("trailing bytes after last checkpoint section");
  }
  if (tables.size() != raw.num_tables) {
    throw FormatError("checkpoint table section count mismatch");
  }
  raw.table_sections.resize(raw.num_tables);
  std::vector<bool> seen(raw.num_tables, false);
  for (const auto& section : tables) {
    if (section.id >= raw.num_tables || seen[section.id]) {
      throw FormatError("bad table id in checkpoint section");
    }
    seen[section.id] = true;
    raw.table_sections[section.id] = section;
  }
  raw.opt_sections.resize(raw.num_tables);
  std::fill(seen.begin(), seen.end(), false);
  for (const auto& section : opts) {
    if (section.id >= raw.num_tables || seen[section.id]) {
      throw FormatError("bad optimizer table id in checkpoint section");
    }
    seen[section.id] = true;
    raw.opt_sections[section.id] = section;
  }
  const bool is_delta = raw.header.kind == CkptKind::kDelta;
  for (std::size_t t = 0; t < raw.num_tables; ++t) {
    const CkptSection expect =
        is_delta ? CkptSection::kTableDelta : CkptSection::kTableFull;
    if (raw.table_sections[t].type != expect) {
      throw FormatError("checkpoint table section kind does not match header");
    }
  }
  return raw;
}

}  // namespace

CheckpointOptions checkpoint_options_from(const CompressionPolicy& policy) {
  CheckpointOptions options;
  options.codec = policy.codec;
  options.table_eb = policy.table_eb;
  options.global_eb = policy.global_eb;
  options.table_choice = policy.table_choice;
  return options;
}

CheckpointOptions checkpoint_options_from(const CompressionPlan& plan) {
  CheckpointOptions options;
  options.codec = "hybrid";
  options.table_eb = plan.table_error_bounds();
  options.table_choice = plan.table_choices();
  return options;
}

ModelState make_model_state(DlrmModel& model, std::uint64_t iteration,
                            std::uint64_t seed) {
  ModelState state;
  state.iteration = iteration;
  state.seed = seed;
  state.bottom = &model.bottom_mlp();
  state.top = &model.top_mlp();
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    state.tables.push_back(&model.table(t).weights());
    state.opt_state.push_back(&model.optimizer(t).accumulator());
  }
  if (model.num_tables() > 0) state.opt_kind = model.optimizer(0).kind();
  return state;
}

CheckpointWriter::CheckpointWriter(CheckpointOptions options)
    : options_(std::move(options)),
      codec_(options_.codec.empty() ? nullptr
                                    : &get_compressor(options_.codec)),
      engine_(std::make_unique<BlockEngine>(codec_, options_.pool)) {}

double CheckpointWriter::table_eb(std::size_t t) const noexcept {
  if (codec_ == nullptr) return 0.0;  // raw storage is exact
  return t < options_.table_eb.size() ? options_.table_eb[t]
                                      : options_.global_eb;
}

CompressParams CheckpointWriter::table_params(std::size_t t,
                                              std::size_t dim) const noexcept {
  CompressParams params;
  params.error_bound = table_eb(t);
  params.eb_mode = EbMode::kAbsolute;
  params.vector_dim = dim;
  params.hybrid_choice = t < options_.table_choice.size()
                             ? options_.table_choice[t]
                             : HybridChoice::kAuto;
  return params;
}

void CheckpointWriter::check_shapes(const ModelState& state) const {
  DLCOMP_CHECK(state.bottom != nullptr && state.top != nullptr);
  DLCOMP_CHECK(state.opt_state.empty() ||
               state.opt_state.size() == state.tables.size());
  for (const Matrix* table : state.tables) DLCOMP_CHECK(table != nullptr);
  DLCOMP_CHECK_MSG(
      options_.table_eb.empty() ||
          options_.table_eb.size() == state.tables.size(),
      "per-table error bounds cover " << options_.table_eb.size()
                                      << " tables, model has "
                                      << state.tables.size());
}

void CheckpointWriter::save_full(const std::string& path,
                                 const ModelState& state) {
  check_shapes(state);
  const std::size_t num_tables = state.tables.size();
  shadow_.assign(num_tables, Matrix());
  shadow_opt_.assign(num_tables, Matrix());

  // Encode every table in one flat blocked batch: with a codec, large
  // tables split into independent blocks (see chunked.hpp), so a snapshot
  // dominated by a single huge table still spreads across the pool
  // instead of serializing on that table. Streams are then gathered per
  // table on the pool (raw tables are copied there). The shadow
  // reconstruction is deferred (see pending_shadow_): only a later
  // save_delta needs it.
  std::vector<EncodedValues> encoded(num_tables);
  engine_->compress_begin();
  std::vector<std::size_t> slots(num_tables, kNoSlot);
  for (std::size_t t = 0; t < num_tables; ++t) {
    const Matrix& weights = *state.tables[t];
    if (weights.flat().empty()) continue;
    encoded[t].storage = stream_storage();
    slots[t] =
        engine_->add_tensor(weights.flat(), table_params(t, weights.cols()));
  }
  engine_->compress_run();
  for_each_table(options_.pool, num_tables, [&](std::size_t t) {
    if (slots[t] != kNoSlot) {
      encoded[t].bytes.reserve(engine_->stream_bytes(slots[t]));
      engine_->append_stream(slots[t], encoded[t].bytes);
    }
    const Matrix* opt = t < state.opt_state.size() ? state.opt_state[t]
                                                   : nullptr;
    if (opt != nullptr && !opt->empty()) {
      shadow_opt_[t] = *opt;  // optimizer state is always stored exactly
    }
  });

  std::vector<std::byte> out;
  CkptHeader header;
  header.kind = CkptKind::kFull;
  header.checkpoint_id = make_checkpoint_id(state.seed, state.iteration, saves_);
  header.parent_id = 0;
  header.iteration = state.iteration;
  header.seed = state.seed;
  const std::size_t count_at =
      begin_container(out, header, options_.codec, /*parent_file=*/"", state);
  std::uint32_t sections = 3;

  for (std::size_t t = 0; t < num_tables; ++t) {
    const Matrix& weights = *state.tables[t];
    std::vector<std::byte> payload;
    append_pod(payload, static_cast<std::uint64_t>(weights.rows()));
    append_pod(payload, static_cast<std::uint32_t>(weights.cols()));
    append_pod(payload, encoded[t].storage);
    append_pod(payload, table_eb(t));
    append_pod(payload, static_cast<std::uint64_t>(encoded[t].bytes.size()));
    payload.insert(payload.end(), encoded[t].bytes.begin(),
                   encoded[t].bytes.end());
    append_section(out, CkptSection::kTableFull,
                   static_cast<std::uint32_t>(t), payload);
    ++sections;

    std::vector<std::byte> opt_payload;
    const Matrix& opt = shadow_opt_[t];
    append_pod(opt_payload, static_cast<std::uint64_t>(weights.rows()));
    append_pod(opt_payload, static_cast<std::uint32_t>(weights.cols()));
    append_pod(opt_payload, static_cast<std::uint8_t>(opt.empty() ? 0 : 1));
    if (!opt.empty()) {
      append_pod_span(opt_payload, std::span<const float>(opt.flat()));
    }
    append_section(out, CkptSection::kOptState, static_cast<std::uint32_t>(t),
                   opt_payload);
    ++sections;
  }

  patch_section_count(out, count_at, sections);
  write_container(path, out);

  pending_shadow_.clear();
  pending_shadow_.resize(num_tables);
  for (std::size_t t = 0; t < num_tables; ++t) {
    pending_shadow_[t] = {std::move(encoded[t].bytes), state.tables[t]->rows(),
                          state.tables[t]->cols()};
  }
  last_id_ = header.checkpoint_id;
  last_file_ = std::filesystem::path(path).filename().string();
  ++saves_;
}

void CheckpointWriter::materialize_shadow() {
  if (pending_shadow_.empty()) return;
  // Blocked batch: large tables decode block-parallel, so the first
  // save_delta after a full snapshot does not serialize on one table.
  engine_->decompress_begin();
  for (std::size_t t = 0; t < pending_shadow_.size(); ++t) {
    const PendingShadow& pending = pending_shadow_[t];
    Matrix& shadow = shadow_[t];
    shadow.resize(pending.rows, pending.dim);
    if (!pending.bytes.empty()) engine_->add_stream(pending.bytes, shadow.flat());
  }
  engine_->decompress_run();
  pending_shadow_.clear();
}

void CheckpointWriter::save_delta(const std::string& path,
                                  const ModelState& state) {
  DLCOMP_CHECK_MSG(saves_ > 0,
                   "delta checkpoint requires a prior full snapshot");
  check_shapes(state);
  const std::size_t num_tables = state.tables.size();
  DLCOMP_CHECK_MSG(shadow_.size() == num_tables,
                   "model table count changed between saves");
  materialize_shadow();

  struct TableDelta {
    std::vector<std::byte> bitmap;
    std::uint64_t touched = 0;
    std::vector<float> touched_values;
    EncodedValues encoded;
    /// What a reader will decode for touched_values; every element is
    /// written by the engine, so it is not value-initialised.
    std::unique_ptr<float[]> recon;
    std::vector<std::byte> opt_bitmap;
    std::uint64_t opt_touched = 0;
    std::vector<float> opt_rows;
    bool opt_present = false;
  };
  std::vector<TableDelta> deltas(num_tables);

  // Phase 1 (parallel per table): diff live weights against the shadow to
  // collect touched rows, and fold optimizer rows (always exact, raw).
  for_each_table(options_.pool, num_tables, [&](std::size_t t) {
    const Matrix& weights = *state.tables[t];
    Matrix& shadow = shadow_[t];
    DLCOMP_CHECK_MSG(
        shadow.rows() == weights.rows() && shadow.cols() == weights.cols(),
        "table " << t << " shape changed between saves");
    const std::size_t rows = weights.rows();
    const std::size_t dim = weights.cols();
    const double bound = table_eb(t);
    TableDelta& delta = deltas[t];
    delta.bitmap.assign(bitmap_bytes(rows), std::byte{0});

    for (std::size_t r = 0; r < rows; ++r) {
      const float* live = weights.data() + r * dim;
      const float* seen = shadow.data() + r * dim;
      double max_diff = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        max_diff = std::max(
            max_diff, static_cast<double>(std::abs(live[i] - seen[i])));
      }
      if (max_diff > bound) {
        bitmap_set(delta.bitmap, r);
        ++delta.touched;
        delta.touched_values.insert(delta.touched_values.end(), live,
                                    live + dim);
      }
    }

    // Optimizer rows: exact diff, raw storage.
    const Matrix* opt = t < state.opt_state.size() ? state.opt_state[t]
                                                   : nullptr;
    delta.opt_present = opt != nullptr && !opt->empty();
    delta.opt_bitmap.assign(bitmap_bytes(rows), std::byte{0});
    if (delta.opt_present) {
      Matrix& opt_shadow = shadow_opt_[t];
      const bool had_shadow = !opt_shadow.empty();
      for (std::size_t r = 0; r < rows; ++r) {
        const float* live = opt->data() + r * dim;
        const float* seen = had_shadow ? opt_shadow.data() + r * dim : nullptr;
        bool changed = false;
        for (std::size_t i = 0; i < dim; ++i) {
          const float base = seen != nullptr ? seen[i] : 0.0f;
          if (live[i] != base) {
            changed = true;
            break;
          }
        }
        if (changed) {
          bitmap_set(delta.opt_bitmap, r);
          ++delta.opt_touched;
          delta.opt_rows.insert(delta.opt_rows.end(), live, live + dim);
        }
      }
      if (!had_shadow) opt_shadow.resize(rows, dim);
      std::size_t j = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        if (!bitmap_get(delta.opt_bitmap, r)) continue;
        std::copy_n(delta.opt_rows.begin() + j * dim, dim,
                    opt_shadow.data() + r * dim);
        ++j;
      }
    }
  });

  // Phase 2: encode every table's touched rows as one flat blocked batch
  // with per-block reconstruction, so a delta dominated by a single hot
  // table still scales with the pool; streams are gathered per table on
  // the pool.
  engine_->compress_begin();
  std::vector<std::size_t> slots(num_tables, kNoSlot);
  for (std::size_t t = 0; t < num_tables; ++t) {
    TableDelta& delta = deltas[t];
    if (delta.touched_values.empty()) continue;
    delta.encoded.storage = stream_storage();
    delta.recon =
        std::make_unique_for_overwrite<float[]>(delta.touched_values.size());
    slots[t] = engine_->add_tensor(
        delta.touched_values, table_params(t, state.tables[t]->cols()),
        std::span<float>(delta.recon.get(), delta.touched_values.size()));
  }
  engine_->compress_run();
  for_each_table(options_.pool, num_tables, [&](std::size_t t) {
    if (slots[t] == kNoSlot) return;
    deltas[t].encoded.bytes.reserve(engine_->stream_bytes(slots[t]));
    engine_->append_stream(slots[t], deltas[t].encoded.bytes);
  });

  // Phase 3 (parallel): fold the reconstruction back into the shadow so
  // the next delta diffs against exactly what a reader will have.
  for_each_table(options_.pool, num_tables, [&](std::size_t t) {
    const Matrix& weights = *state.tables[t];
    const std::size_t dim = weights.cols();
    Matrix& shadow = shadow_[t];
    const TableDelta& delta = deltas[t];
    std::size_t k = 0;
    for (std::size_t r = 0; r < weights.rows(); ++r) {
      if (!bitmap_get(delta.bitmap, r)) continue;
      std::copy_n(delta.recon.get() + k * dim, dim, shadow.data() + r * dim);
      ++k;
    }
  });

  std::vector<std::byte> out;
  CkptHeader header;
  header.kind = CkptKind::kDelta;
  header.checkpoint_id = make_checkpoint_id(state.seed, state.iteration, saves_);
  header.parent_id = last_id_;
  header.iteration = state.iteration;
  header.seed = state.seed;
  const std::size_t count_at =
      begin_container(out, header, options_.codec, last_file_, state);
  std::uint32_t sections = 3;

  for (std::size_t t = 0; t < num_tables; ++t) {
    const Matrix& weights = *state.tables[t];
    const TableDelta& delta = deltas[t];
    std::vector<std::byte> payload;
    append_pod(payload, static_cast<std::uint64_t>(weights.rows()));
    append_pod(payload, static_cast<std::uint32_t>(weights.cols()));
    append_pod(payload, delta.encoded.storage);
    append_pod(payload, table_eb(t));
    append_pod(payload, delta.touched);
    payload.insert(payload.end(), delta.bitmap.begin(), delta.bitmap.end());
    append_pod(payload,
               static_cast<std::uint64_t>(delta.encoded.bytes.size()));
    payload.insert(payload.end(), delta.encoded.bytes.begin(),
                   delta.encoded.bytes.end());
    append_section(out, CkptSection::kTableDelta,
                   static_cast<std::uint32_t>(t), payload);
    ++sections;

    std::vector<std::byte> opt_payload;
    append_pod(opt_payload, static_cast<std::uint64_t>(weights.rows()));
    append_pod(opt_payload, static_cast<std::uint32_t>(weights.cols()));
    append_pod(opt_payload,
               static_cast<std::uint8_t>(delta.opt_present ? 1 : 0));
    if (delta.opt_present) {
      append_pod(opt_payload, delta.opt_touched);
      opt_payload.insert(opt_payload.end(), delta.opt_bitmap.begin(),
                         delta.opt_bitmap.end());
      append_pod_span(opt_payload, std::span<const float>(delta.opt_rows));
    }
    append_section(out, CkptSection::kOptDelta, static_cast<std::uint32_t>(t),
                   opt_payload);
    ++sections;
  }

  patch_section_count(out, count_at, sections);
  write_container(path, out);
  last_id_ = header.checkpoint_id;
  last_file_ = std::filesystem::path(path).filename().string();
  ++saves_;
}

std::string CheckpointWriter::save(const std::string& path,
                                   const ModelState& state,
                                   std::size_t full_every) {
  const bool full =
      saves_ == 0 || full_every <= 1 || saves_ % full_every == 0;
  if (full) {
    save_full(path, state);
  } else {
    save_delta(path, state);
  }
  return path;
}

LoadedCheckpoint CheckpointReader::load(const std::string& path) const {
  return load_one(path, 0);
}

LoadedCheckpoint CheckpointReader::load_one(const std::string& path,
                                            std::size_t depth) const {
  if (depth >= kMaxChainDepth) {
    throw FormatError("checkpoint delta chain too deep (cycle?)");
  }
  const std::vector<std::byte> file = read_container(path);
  RawContainer raw = parse_container(file);

  LoadedCheckpoint loaded;
  if (raw.header.kind == CkptKind::kDelta) {
    if (raw.parent_file.empty()) {
      throw FormatError("delta checkpoint names no parent");
    }
    const std::filesystem::path parent_path =
        std::filesystem::path(path).parent_path() / raw.parent_file;
    loaded = load_one(parent_path.string(), depth + 1);
    if (loaded.header.checkpoint_id != raw.header.parent_id) {
      throw FormatError("delta parent id mismatch: chain is broken");
    }
    if (loaded.tables.size() != raw.num_tables) {
      throw FormatError("delta table count differs from parent");
    }
    ++loaded.chain_length;
  } else {
    loaded.chain_length = 1;
    loaded.tables.resize(raw.num_tables);
  }
  loaded.header = raw.header;
  loaded.codec = raw.codec;
  loaded.opt_kind = raw.opt_kind;
  loaded.parent_file = raw.parent_file;
  // The newest container's MLP state wins over any ancestor's.
  loaded.bottom_params = std::move(raw.bottom_params);
  loaded.top_params = std::move(raw.top_params);

  const bool is_delta = raw.header.kind == CkptKind::kDelta;
  for_each_table(pool_, raw.num_tables, [&](std::size_t t) {
    LoadedTable& table = loaded.tables[t];
    ByteReader reader(raw.table_sections[t].payload);
    const auto rows = reader.read<std::uint64_t>();
    const auto dim = reader.read<std::uint32_t>();
    const auto storage = reader.read<std::uint8_t>();
    const auto eb = reader.read<double>();
    if (!is_delta) {
      table.rows = rows;
      table.dim = dim;
      table.error_bound = eb;
      table.lossy = storage == 1 && get_compressor(raw.codec).lossy();
      const auto byte_count = reader.read<std::uint64_t>();
      table.values = decode_values(raw.codec, storage,
                                   reader.take(byte_count),
                                   checked_element_count(rows, dim));
    } else {
      if (table.rows != rows || table.dim != dim) {
        throw FormatError("delta table shape differs from parent");
      }
      const auto touched = reader.read<std::uint64_t>();
      if (touched > rows) {
        throw FormatError("delta touched count exceeds table rows");
      }
      const auto bitmap = reader.take(bitmap_bytes(rows));
      const auto byte_count = reader.read<std::uint64_t>();
      const std::vector<float> rows_data =
          decode_values(raw.codec, storage, reader.take(byte_count),
                        static_cast<std::size_t>(touched) * dim);
      std::size_t k = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        if (!bitmap_get(bitmap, r)) continue;
        if (k >= touched) {
          throw FormatError("delta bitmap popcount exceeds touched count");
        }
        std::copy_n(rows_data.begin() + k * dim, dim,
                    table.values.begin() + r * dim);
        ++k;
      }
      if (k != touched) {
        throw FormatError("delta bitmap popcount below touched count");
      }
      table.error_bound = std::max(table.error_bound, eb);
      table.lossy = table.lossy || (storage == 1 && get_compressor(raw.codec).lossy());
    }
    if (reader.remaining() != 0) {
      throw FormatError("trailing bytes in checkpoint table section");
    }

    const SectionView& opt_section = raw.opt_sections[t];
    if (opt_section.payload.data() == nullptr) return;  // no optimizer state
    ByteReader opt(opt_section.payload);
    const auto opt_rows = opt.read<std::uint64_t>();
    const auto opt_dim = opt.read<std::uint32_t>();
    if (opt_rows != table.rows || opt_dim != table.dim) {
      throw FormatError("optimizer section shape differs from table");
    }
    const auto present = opt.read<std::uint8_t>();
    if (opt_section.type == CkptSection::kOptState) {
      if (present != 0) {
        table.opt_state.resize(static_cast<std::size_t>(opt_rows) * opt_dim);
        opt.read_span(std::span<float>(table.opt_state));
      } else {
        table.opt_state.clear();
      }
    } else if (present != 0) {  // kOptDelta overlays the parent's state
      const auto touched = opt.read<std::uint64_t>();
      if (touched > opt_rows) {
        throw FormatError("optimizer delta touched count exceeds table rows");
      }
      const auto bitmap = opt.take(bitmap_bytes(opt_rows));
      std::vector<float> rows_data(static_cast<std::size_t>(touched) *
                                   opt_dim);
      opt.read_span(std::span<float>(rows_data));
      if (table.opt_state.empty()) {
        table.opt_state.assign(static_cast<std::size_t>(opt_rows) * opt_dim,
                               0.0f);
      }
      std::size_t k = 0;
      for (std::size_t r = 0; r < opt_rows; ++r) {
        if (!bitmap_get(bitmap, r)) continue;
        if (k >= touched) {
          throw FormatError("optimizer delta bitmap exceeds touched count");
        }
        std::copy_n(rows_data.begin() + k * opt_dim, opt_dim,
                    table.opt_state.begin() + r * opt_dim);
        ++k;
      }
      if (k != touched) {
        throw FormatError("optimizer delta bitmap below touched count");
      }
    }
    if (opt.remaining() != 0) {
      throw FormatError("trailing bytes in checkpoint optimizer section");
    }
  });

  // Full snapshots must materialize every value exactly once.
  if (!is_delta) {
    for (const LoadedTable& table : loaded.tables) {
      if (table.values.size() !=
          static_cast<std::size_t>(table.rows) * table.dim) {
        throw FormatError("checkpoint table not fully materialized");
      }
    }
  }
  return loaded;
}

void apply_model_state(const LoadedCheckpoint& ckpt, const ModelState& state) {
  DLCOMP_CHECK(state.bottom != nullptr && state.top != nullptr);
  DLCOMP_CHECK_MSG(ckpt.tables.size() == state.tables.size(),
                   "checkpoint has " << ckpt.tables.size()
                                     << " tables, model has "
                                     << state.tables.size());
  apply_mlp(ckpt.bottom_params, *state.bottom, "bottom");
  apply_mlp(ckpt.top_params, *state.top, "top");
  for (std::size_t t = 0; t < ckpt.tables.size(); ++t) {
    const LoadedTable& loaded = ckpt.tables[t];
    Matrix& weights = *state.tables[t];
    DLCOMP_CHECK_MSG(
        loaded.rows == weights.rows() && loaded.dim == weights.cols(),
        "table " << t << " shape mismatch: checkpoint " << loaded.rows << "x"
                 << loaded.dim << ", model " << weights.rows() << "x"
                 << weights.cols());
    std::copy(loaded.values.begin(), loaded.values.end(),
              weights.flat().begin());
    Matrix* opt = t < state.opt_state.size() ? state.opt_state[t] : nullptr;
    if (opt == nullptr) continue;
    if (loaded.opt_state.empty()) {
      *opt = Matrix();
    } else {
      opt->resize(loaded.rows, loaded.dim);
      std::copy(loaded.opt_state.begin(), loaded.opt_state.end(),
                opt->flat().begin());
    }
  }
}

void load_checkpoint_into(DlrmModel& model, const std::string& path,
                          ThreadPool* pool) {
  const LoadedCheckpoint loaded = CheckpointReader(pool).load(path);
  apply_model_state(loaded, make_model_state(model));
}

ContainerInfo inspect_checkpoint(const std::string& path) {
  const std::vector<std::byte> file = read_container(path);
  ContainerInfo info;
  info.file_bytes = file.size();

  ByteReader reader(file);
  info.header = parse_ckpt_header(reader);
  for (std::uint32_t s = 0; s < info.header.section_count; ++s) {
    const SectionView section = read_section(reader);
    info.sections.push_back(
        {section.type, section.id, section.payload.size()});
    switch (section.type) {
      case CkptSection::kMeta: {
        ByteReader meta(section.payload);
        info.codec = read_string(meta);
        (void)meta.read<std::uint8_t>();
        info.parent_file = read_string(meta);
        break;
      }
      case CkptSection::kTableFull: {
        ByteReader table(section.payload);
        const auto rows = table.read<std::uint64_t>();
        const auto dim = table.read<std::uint32_t>();
        (void)table.read<std::uint8_t>();
        (void)table.read<double>();
        const auto bytes = table.read<std::uint64_t>();
        info.table_raw_bytes +=
            static_cast<std::size_t>(rows) * dim * sizeof(float);
        info.table_stored_bytes += bytes;
        break;
      }
      case CkptSection::kTableDelta: {
        ByteReader table(section.payload);
        const auto rows = table.read<std::uint64_t>();
        const auto dim = table.read<std::uint32_t>();
        (void)table.read<std::uint8_t>();
        (void)table.read<double>();
        const auto touched = table.read<std::uint64_t>();
        table.skip(bitmap_bytes(rows));
        const auto bytes = table.read<std::uint64_t>();
        info.table_raw_bytes +=
            static_cast<std::size_t>(touched) * dim * sizeof(float);
        info.table_stored_bytes += bytes;
        info.delta_touched_rows += touched;
        break;
      }
      default:
        break;
    }
  }
  if (reader.remaining() != 0) {
    throw FormatError("trailing bytes after last checkpoint section");
  }
  return info;
}

}  // namespace dlcomp
