#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/file_io.hpp"
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

/// Rows being written as a delta: one bitmap bit per table row, set for
/// the `touched` rows that moved, whose values are packed in row order.
struct RowDelta {
  std::vector<std::byte> bitmap;
  std::uint64_t touched = 0;
  std::vector<float> packed;
};

/// Collects the rows r of `live` for which moved(r) holds.
template <typename Moved>
RowDelta collect_rows(const Matrix& live, const Moved& moved) {
  RowDelta delta;
  delta.bitmap.assign(bitmap_bytes(live.rows()), std::byte{0});
  for (std::size_t r = 0; r < live.rows(); ++r) {
    if (!moved(r)) continue;
    bitmap_set(delta.bitmap, r);
    ++delta.touched;
    const auto row = live.row(r);
    delta.packed.insert(delta.packed.end(), row.begin(), row.end());
  }
  return delta;
}

/// Lands a row delta: packed row k goes to the row of `table` (rows x
/// dim) at the k-th set bit of `bitmap`. It is the one place a delta is
/// applied -- the reader's replay and the writer's shadow alike -- and so
/// the one place the bitmap's popcount is checked against `touched`.
void overlay_rows(std::span<const std::byte> bitmap, std::size_t rows,
                  std::uint64_t touched, std::size_t dim,
                  std::span<const float> packed, std::span<float> table) {
  std::uint64_t k = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (!bitmap_get(bitmap, r)) continue;
    if (k >= touched) {
      throw FormatError("delta bitmap popcount exceeds touched count");
    }
    std::copy_n(packed.begin() + k * dim, dim, table.begin() + r * dim);
    ++k;
  }
  if (k != touched) {
    throw FormatError("delta bitmap popcount below touched count");
  }
}

/// One table or optimizer section, parsed. This is the one reader of
/// per-table section headers: CheckpointReader, inspect_checkpoint and
/// the writer's deferred shadow all go through it. Payloads start with
/// u64 rows | u32 dim, then
///   table:     u8 storage | f64 eb | [delta: u64 touched | bitmap] |
///              u64 stream_bytes | stream
///   optimizer: u8 present | [present: [delta: u64 touched | bitmap] |
///              the rows as raw float32]
/// where a full section holds every row and the bitmap has one bit per
/// row. `touched` is bounded by `rows` here, before any size is derived
/// from it; overlay_rows checks it against the bitmap.
struct TableSection {
  bool delta = false;
  std::uint64_t rows = 0;
  std::uint32_t dim = 0;
  std::uint8_t storage = 0;  ///< 0 raw float32 (always for optimizer), 1 codec
  double eb = 0.0;
  bool present = true;        ///< false: an optimizer section without state
  std::uint64_t touched = 0;  ///< rows the stream holds
  std::span<const std::byte> bitmap;
  std::span<const std::byte> stream;

  [[nodiscard]] std::size_t count() const noexcept { return touched * dim; }
};

TableSection parse_table_section(const SectionView& section) {
  const bool opt = section.type == CkptSection::kOptState ||
                   section.type == CkptSection::kOptDelta;
  TableSection s;
  s.delta = section.type == CkptSection::kTableDelta ||
            section.type == CkptSection::kOptDelta;
  ByteReader reader(section.payload);
  s.rows = reader.read<std::uint64_t>();
  s.dim = reader.read<std::uint32_t>();
  // Reject shapes whose float32 byte size would not fit a size_t: they
  // could otherwise defeat every downstream size check, or wrap the
  // bitmap's byte count to 0.
  constexpr std::uint64_t kMaxElems =
      std::numeric_limits<std::size_t>::max() / sizeof(float);
  if (s.rows > kMaxElems || (s.dim != 0 && s.rows > kMaxElems / s.dim)) {
    throw FormatError("checkpoint table dimensions overflow");
  }
  if (opt) {
    s.present = reader.read<std::uint8_t>() != 0;
  } else {
    s.storage = reader.read<std::uint8_t>();
    s.eb = reader.read<double>();
  }
  s.touched = s.present ? s.rows : 0;
  if (s.delta && s.present) {
    s.touched = reader.read<std::uint64_t>();
    if (s.touched > s.rows) {
      throw FormatError("delta touched count exceeds table rows");
    }
    s.bitmap = reader.take(bitmap_bytes(s.rows));
  }
  s.stream = reader.take(opt ? s.count() * sizeof(float)
                             : reader.read<std::uint64_t>());
  if (reader.remaining() != 0) {
    throw FormatError("trailing bytes in checkpoint table section");
  }
  return s;
}

/// Decodes a section's stream and lands it in `dst`: a full section
/// replaces it, a delta overlays its rows (onto zeros when `dst` holds
/// nothing yet, as for optimizer state first saved in a delta).
void land_section(const std::string& codec_name, const TableSection& s,
                  std::vector<float>& dst) {
  // Validate sizes before allocating so a crafted count fails cleanly
  // instead of attempting a huge allocation.
  const Compressor* codec = nullptr;  // storage 0: raw float32
  if (s.storage != 0) {
    if (codec_name.empty()) {
      throw FormatError("checkpoint stream payload without a codec name");
    }
    if (decompressed_count(s.stream) != s.count()) {
      throw FormatError("checkpoint stream element count mismatch");
    }
    codec = &get_compressor(codec_name);
  } else if (s.stream.size() != s.count() * sizeof(float)) {
    throw FormatError("checkpoint raw table payload has wrong size");
  }
  // The payload may be a blocked ("DLBK") container when the writer split
  // a large table across its pool; blocked_decompress handles every form.
  // A thread runs one per-table task at a time, so the task borrows
  // that thread's workspace.
  std::vector<float> values(s.count());
  blocked_decompress(codec, s.stream, values, thread_local_workspace());
  if (!s.delta) {
    dst = std::move(values);
  } else if (s.present) {
    if (dst.empty()) dst.assign(s.rows * s.dim, 0.0f);
    overlay_rows(s.bitmap, s.rows, s.touched, s.dim, values, dst);
  }
}

void put_mlp(SectionWriter& w, CkptSection type, Mlp& mlp) {
  const auto views = mlp.param_views();
  w.begin(type, 0);
  w.put(static_cast<std::uint32_t>(views.size()));
  for (const auto view : views) {
    w.put(static_cast<std::uint64_t>(view.size()));
    w.put_bytes(std::as_bytes(view));
  }
  w.end();
}

/// A row delta's index: u64 touched | bitmap.
void put_index(SectionWriter& w, const RowDelta& delta) {
  w.put(delta.touched);
  w.put_bytes(delta.bitmap);
}

/// Writes table t's optimizer section: shape, whether `opt` holds state,
/// then all its rows (full) or `delta`'s index and rows, as raw float32.
void put_opt(SectionWriter& w, CkptSection type, std::size_t t,
             const Matrix& weights, const Matrix* opt, const RowDelta* delta) {
  w.begin(type, static_cast<std::uint32_t>(t));
  w.put(static_cast<std::uint64_t>(weights.rows()));
  w.put(static_cast<std::uint32_t>(weights.cols()));
  w.put(static_cast<std::uint8_t>(opt != nullptr));
  if (opt != nullptr) {
    if (delta != nullptr) put_index(w, *delta);
    w.put_bytes(std::as_bytes(delta != nullptr
                                  ? std::span<const float>(delta->packed)
                                  : opt->flat()));
  }
  w.end();
}

/// The live optimizer state of table t, or null when there is none.
const Matrix* live_opt(const ModelState& state, std::size_t t) {
  const Matrix* opt = t < state.opt_state.size() ? state.opt_state[t] : nullptr;
  return opt != nullptr && !opt->empty() ? opt : nullptr;
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
  const auto by_id = [&](const std::vector<SectionView>& sections,
                         const std::string& what) {
    std::vector<SectionView> out(raw.num_tables);
    std::vector<bool> seen(raw.num_tables, false);
    for (const auto& section : sections) {
      if (section.id >= raw.num_tables || seen[section.id]) {
        throw FormatError("bad " + what + " id in checkpoint section");
      }
      seen[section.id] = true;
      out[section.id] = section;
    }
    return out;
  };
  raw.table_sections = by_id(tables, "table");
  raw.opt_sections = by_id(opts, "optimizer table");
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
  for (std::size_t t = 0; t < state.tables.size(); ++t) {
    const Matrix* table = state.tables[t];
    DLCOMP_CHECK(table != nullptr);
    const Matrix* opt = live_opt(state, t);
    DLCOMP_CHECK_MSG(opt == nullptr || (opt->rows() == table->rows() &&
                                        opt->cols() == table->cols()),
                     "table " << t << " optimizer state shape differs");
  }
  DLCOMP_CHECK_MSG(
      options_.table_eb.empty() ||
          options_.table_eb.size() == state.tables.size(),
      "per-table error bounds cover " << options_.table_eb.size()
                                      << " tables, model has "
                                      << state.tables.size());
}

template <typename Tables>
CheckpointWriter::Image CheckpointWriter::write_image(const std::string& path,
                                                      CkptKind kind,
                                                      const ModelState& state,
                                                      const Tables& tables) {
  const std::size_t num_tables = state.tables.size();
  CkptHeader header;
  header.kind = kind;
  header.checkpoint_id = make_checkpoint_id(state.seed, state.iteration, saves_);
  header.parent_id = kind == CkptKind::kDelta ? last_id_ : 0;
  header.iteration = state.iteration;
  header.seed = state.seed;
  header.section_count = static_cast<std::uint32_t>(3 + 2 * num_tables);
  const auto head = [&](SectionWriter& w) {
    w.put_header(header);
    w.begin(CkptSection::kMeta, 0);
    w.put_string(options_.codec);
    w.put(static_cast<std::uint8_t>(state.opt_kind));
    w.put_string(kind == CkptKind::kDelta ? last_file_ : "");
    w.put(static_cast<std::uint32_t>(num_tables));
    w.end();
    put_mlp(w, CkptSection::kMlpBottom, *state.bottom);
    put_mlp(w, CkptSection::kMlpTop, *state.top);
  };
  SectionWriter measure;
  head(measure);
  std::vector<std::size_t> table_at(num_tables + 1, measure.position());
  for (std::size_t t = 0; t < num_tables; ++t) {
    tables(measure, t);
    table_at[t + 1] = measure.position();
  }
  // Each part must end where the measuring pass said: the tables are
  // framed concurrently, so any drift would overwrite a neighbour.
  std::vector<std::byte> image(table_at.back());
  SectionWriter w(image);
  head(w);
  DLCOMP_CHECK(w.position() == table_at[0]);
  for_each_table(options_.pool, num_tables, [&](std::size_t t) {
    SectionWriter part(image, table_at[t]);
    tables(part, t);
    DLCOMP_CHECK(part.position() == table_at[t + 1]);
  });
  write_file(path, image);

  last_id_ = header.checkpoint_id;
  last_file_ = std::filesystem::path(path).filename().string();
  ++saves_;
  return {std::move(image), std::move(table_at)};
}

void CheckpointWriter::put_table_head(SectionWriter& w, CkptSection type,
                                      std::size_t t, const Matrix& weights,
                                      std::size_t slot) const {
  w.begin(type, static_cast<std::uint32_t>(t));
  w.put(static_cast<std::uint64_t>(weights.rows()));
  w.put(static_cast<std::uint32_t>(weights.cols()));
  w.put(static_cast<std::uint8_t>(slot != kNoSlot && codec_ != nullptr));
  w.put(table_eb(t));
}

void CheckpointWriter::put_stream(SectionWriter& w, std::size_t slot) const {
  const std::size_t bytes = slot == kNoSlot ? 0 : engine_->stream_bytes(slot);
  w.put(static_cast<std::uint64_t>(bytes));
  w.fill(bytes, [&](std::span<std::byte> dst) {
    engine_->write_stream(slot, dst);
  });
  w.end();
}

void CheckpointWriter::save_full(const std::string& path,
                                 const ModelState& state) {
  check_shapes(state);
  const std::size_t num_tables = state.tables.size();

  // Encode every table in one flat blocked batch: with a codec, large
  // tables split into independent blocks (see chunked.hpp), so a snapshot
  // dominated by a single huge table still spreads across the pool
  // instead of serializing on that table. write_image() then puts each
  // table's stream (raw tables: its float32 bytes) straight into the
  // file image, one table per pool task.
  engine_->compress_begin();
  std::vector<std::size_t> slots(num_tables, kNoSlot);
  for (std::size_t t = 0; t < num_tables; ++t) {
    const Matrix& weights = *state.tables[t];
    if (weights.flat().empty()) continue;
    slots[t] =
        engine_->add_tensor(weights.flat(), table_params(t, weights.cols()));
  }
  engine_->compress_run();

  Image image = write_image(
      path, CkptKind::kFull, state, [&](SectionWriter& w, std::size_t t) {
        const Matrix& weights = *state.tables[t];
        put_table_head(w, CkptSection::kTableFull, t, weights, slots[t]);
        put_stream(w, slots[t]);
        put_opt(w, CkptSection::kOptState, t, weights, live_opt(state, t),
                nullptr);
      });

  // The shadow is deferred (see pending_image_): only a later save_delta
  // needs it.
  shadow_.assign(num_tables, Matrix());
  shadow_opt_.assign(num_tables, Matrix());
  pending_image_ = std::move(image);
}

void CheckpointWriter::materialize_shadow() {
  if (pending_image_.bytes.empty()) return;
  // The image is this writer's own, so table t's two sections are read
  // straight from their offset: no container walk, CRC or MLP copy.
  const std::span<const std::byte> image(pending_image_.bytes);
  const std::vector<std::size_t>& table_at = pending_image_.table_at;
  std::vector<std::span<const std::byte>> streams(shadow_.size());
  for_each_table(options_.pool, shadow_.size(), [&](std::size_t t) {
    ByteReader reader(image.subspan(table_at[t], table_at[t + 1] - table_at[t]));
    const TableSection table = parse_table_section(read_framed_section(reader));
    shadow_[t].resize(table.rows, table.dim);
    streams[t] = table.stream;
    const TableSection opt = parse_table_section(read_framed_section(reader));
    if (!opt.present) return;
    shadow_opt_[t].resize(opt.rows, opt.dim);
    std::memcpy(shadow_opt_[t].data(), opt.stream.data(), opt.stream.size());
  });
  // Blocked batch: large tables decode block-parallel, so the first
  // save_delta after a full snapshot does not serialize on one table.
  engine_->decompress_begin();
  for (std::size_t t = 0; t < shadow_.size(); ++t) {
    if (!streams[t].empty()) engine_->add_stream(streams[t], shadow_[t].flat());
  }
  engine_->decompress_run();
  pending_image_ = Image();  // frees the image
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
    RowDelta weights;
    /// What a reader will decode for weights.packed; every element is
    /// written by the engine, so it is not value-initialised.
    std::unique_ptr<float[]> recon;
    RowDelta opt;
  };
  std::vector<TableDelta> deltas(num_tables);

  // Phase 1 (parallel per table): the rows that moved more than the
  // table's bound from the shadow, and the optimizer rows that changed at
  // all (optimizer state is stored exactly).
  for_each_table(options_.pool, num_tables, [&](std::size_t t) {
    const Matrix& weights = *state.tables[t];
    const Matrix& shadow = shadow_[t];
    DLCOMP_CHECK_MSG(
        shadow.rows() == weights.rows() && shadow.cols() == weights.cols(),
        "table " << t << " shape changed between saves");
    const std::size_t dim = weights.cols();
    const double bound = table_eb(t);
    deltas[t].weights = collect_rows(weights, [&](std::size_t r) {
      const float* live = weights.data() + r * dim;
      const float* seen = shadow.data() + r * dim;
      double max_diff = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        max_diff = std::max(
            max_diff, static_cast<double>(std::abs(live[i] - seen[i])));
      }
      return max_diff > bound;
    });
    const Matrix* opt = live_opt(state, t);
    if (opt == nullptr) return;
    const Matrix& opt_shadow = shadow_opt_[t];
    deltas[t].opt = collect_rows(*opt, [&](std::size_t r) {
      const float* live = opt->data() + r * dim;
      for (std::size_t i = 0; i < dim; ++i) {
        const float base =
            opt_shadow.empty() ? 0.0f : opt_shadow.data()[r * dim + i];
        if (live[i] != base) return true;
      }
      return false;
    });
  });

  // Phase 2: encode every table's moved rows as one flat blocked batch
  // with per-block reconstruction, so a delta dominated by a single hot
  // table still scales with the pool.
  engine_->compress_begin();
  std::vector<std::size_t> slots(num_tables, kNoSlot);
  for (std::size_t t = 0; t < num_tables; ++t) {
    TableDelta& delta = deltas[t];
    const std::size_t count = delta.weights.packed.size();
    if (count == 0) continue;
    delta.recon = std::make_unique_for_overwrite<float[]>(count);
    slots[t] = engine_->add_tensor(delta.weights.packed,
                                   table_params(t, state.tables[t]->cols()),
                                   std::span<float>(delta.recon.get(), count));
  }
  engine_->compress_run();

  write_image(path, CkptKind::kDelta, state,
              [&](SectionWriter& w, std::size_t t) {
    const Matrix& weights = *state.tables[t];
    put_table_head(w, CkptSection::kTableDelta, t, weights, slots[t]);
    put_index(w, deltas[t].weights);
    put_stream(w, slots[t]);
    put_opt(w, CkptSection::kOptDelta, t, weights, live_opt(state, t),
            &deltas[t].opt);
  });

  // Phase 3 (parallel), once the file is on disk: land the
  // reconstruction and the optimizer rows in the shadow, so the next
  // delta diffs against exactly what a reader will have.
  for_each_table(options_.pool, num_tables, [&](std::size_t t) {
    const Matrix& weights = *state.tables[t];
    const std::size_t rows = weights.rows();
    const std::size_t dim = weights.cols();
    const TableDelta& delta = deltas[t];
    overlay_rows(delta.weights.bitmap, rows, delta.weights.touched, dim,
                 {delta.recon.get(), delta.weights.packed.size()},
                 shadow_[t].flat());
    if (live_opt(state, t) == nullptr) return;
    Matrix& opt_shadow = shadow_opt_[t];
    if (opt_shadow.empty()) opt_shadow.resize(rows, dim);
    overlay_rows(delta.opt.bitmap, rows, delta.opt.touched, dim,
                 delta.opt.packed, opt_shadow.flat());
  });
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
    const TableSection section = parse_table_section(raw.table_sections[t]);
    if (is_delta && (table.rows != section.rows || table.dim != section.dim)) {
      throw FormatError("delta table shape differs from parent");
    }
    table.rows = section.rows;
    table.dim = section.dim;
    land_section(raw.codec, section, table.values);
    const bool lossy =
        section.storage == 1 && get_compressor(raw.codec).lossy();
    table.error_bound =
        is_delta ? std::max(table.error_bound, section.eb) : section.eb;
    table.lossy = (is_delta && table.lossy) || lossy;

    const SectionView& opt_section = raw.opt_sections[t];
    if (opt_section.payload.data() == nullptr) return;  // no optimizer state
    const TableSection opt = parse_table_section(opt_section);
    if (opt.rows != table.rows || opt.dim != table.dim) {
      throw FormatError("optimizer section shape differs from table");
    }
    land_section(raw.codec, opt, table.opt_state);
  });
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
    if (section.type == CkptSection::kMeta) {
      ByteReader meta(section.payload);
      info.codec = read_string(meta);
      (void)meta.read<std::uint8_t>();
      info.parent_file = read_string(meta);
    } else if (section.type == CkptSection::kTableFull ||
               section.type == CkptSection::kTableDelta) {
      const TableSection table = parse_table_section(section);
      info.table_raw_bytes += table.count() * sizeof(float);
      info.table_stored_bytes += table.stream.size();
      if (table.delta) info.delta_touched_rows += table.touched;
    }
  }
  if (reader.remaining() != 0) {
    throw FormatError("trailing bytes after last checkpoint section");
  }
  return info;
}

}  // namespace dlcomp
