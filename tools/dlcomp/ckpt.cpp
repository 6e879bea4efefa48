// `dlcomp ckpt save|inspect|verify|diff`: compressed .dlck checkpoints.

#include <algorithm>
#include <cmath>

#include "ckpt/checkpoint.hpp"
#include "cli.hpp"
#include "common/table_printer.hpp"
#include "core/report_io.hpp"
#include "data/synthetic.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp::cli {
namespace {

constexpr FlagSpec kCkptSaveFlags[] = {
    {"--dataset", "kaggle|terabyte|small", "small", "synthetic dataset shape"},
    {"--iters", "N", "50", "training iterations before the save"},
    {"--codec", "NAME|none", "none", "embedding-table codec"},
    {"--eb", "X", "0.01", "global error bound"},
    {"--plan", "FILE", "", "per-table bounds from `dlcomp analyze`"},
    {"--seed", "N", "2024", "data and model seed"},
    {"--optimizer", "sgd|adagrad", "sgd", "embedding optimizer"},
};

const char* section_name(CkptSection type) {
  switch (type) {
    case CkptSection::kMeta: return "meta";
    case CkptSection::kMlpBottom: return "mlp-bottom";
    case CkptSection::kMlpTop: return "mlp-top";
    case CkptSection::kTableFull: return "table";
    case CkptSection::kTableDelta: return "table-delta";
    case CkptSection::kOptState: return "opt-state";
    case CkptSection::kOptDelta: return "opt-delta";
  }
  return "?";
}

int cmd_ckpt_inspect(const ArgParser& args) {
  const ContainerInfo info = inspect_checkpoint(args.positional(0));
  std::printf("kind:        %s\n", info.header.kind == CkptKind::kFull ? "full" : "delta");
  std::printf("id:          %016" PRIx64 "\n", info.header.checkpoint_id);
  if (info.header.kind == CkptKind::kDelta) {
    std::printf("parent:      %s (id %016" PRIx64 ")\n", info.parent_file.c_str(),
                info.header.parent_id);
  }
  std::printf("iteration:   %" PRIu64 "\n", info.header.iteration);
  std::printf("seed:        %" PRIu64 "\n", info.header.seed);
  std::printf("codec:       %s\n", info.codec.empty() ? "none (raw)" : info.codec.c_str());
  std::printf("file bytes:  %zu\n", info.file_bytes);
  if (info.table_stored_bytes > 0) {
    std::printf("tables:      %zu -> %zu bytes (%.2fx)\n",
                info.table_raw_bytes, info.table_stored_bytes,
                static_cast<double>(info.table_raw_bytes) /
                    static_cast<double>(info.table_stored_bytes));
  }
  if (info.header.kind == CkptKind::kDelta) {
    std::printf("touched rows:%zu\n", info.delta_touched_rows);
  }
  TablePrinter table({"section", "id", "payload bytes"});
  for (const auto& section : info.sections) {
    table.add_row({section_name(section.type), std::to_string(section.id),
                   std::to_string(section.bytes)});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}

int cmd_ckpt_save(const ArgParser& args) {
  const std::string out = args.positional(0);
  const DatasetSpec spec = spec_by_name(args.str("--dataset"));
  const std::size_t iters = args.uint("--iters");
  const std::uint64_t seed = args.u64("--seed");

  DlrmConfig model_config;
  const std::string optimizer = args.str("--optimizer");
  if (optimizer == "adagrad") {
    model_config.embedding_optimizer = EmbeddingOptimizerKind::kAdagrad;
  } else if (optimizer != "sgd") {
    throw Error("unknown optimizer: " + optimizer);
  }

  const SyntheticClickDataset dataset(spec, seed);
  DlrmModel model(spec, model_config, seed);
  double loss = 0.0;
  for (std::size_t i = 0; i < iters; ++i) {
    loss = model.train_step(dataset.make_batch(spec.default_batch, i)).loss;
  }

  // Bounds either global (--eb) or per-table from an offline-analysis
  // plan (--plan, as written by `dlcomp analyze`).
  CheckpointOptions options;
  if (args.has("--plan")) {
    options = checkpoint_options_from(load_plan(args.str("--plan")));
    if (args.has("--codec")) options.codec = codec_flag(args);
    DLCOMP_CHECK_MSG(options.table_eb.size() == spec.num_tables(),
                     "plan covers " << options.table_eb.size() << " tables, dataset has "
                                    << spec.num_tables());
  } else {
    options.codec = codec_flag(args);
    options.global_eb = args.num("--eb");
  }
  ThreadPool pool;
  options.pool = &pool;
  CheckpointWriter writer(options);
  writer.save_full(out, make_model_state(model, iters, seed));
  std::printf("trained %s for %zu iterations (final loss %.4f); wrote %s\n",
              spec.name.c_str(), iters, loss, out.c_str());
  return cmd_ckpt_inspect(args);
}

int cmd_ckpt_verify(const ArgParser& args) {
  const std::string path = args.positional(0);
  // Pass 1: container-level structure + per-section CRCs.
  const ContainerInfo info = inspect_checkpoint(path);
  // Pass 2: full chain replay, decoding every payload.
  ThreadPool pool;
  const LoadedCheckpoint loaded = CheckpointReader(&pool).load(path);
  std::size_t values = 0;
  for (const auto& table : loaded.tables) values += table.values.size();
  std::printf(
      "%s: OK (%s, %zu sections, chain length %zu, %zu tables, "
      "%zu embedding values, iteration %" PRIu64 ")\n",
      path.c_str(), info.header.kind == CkptKind::kFull ? "full" : "delta",
      info.sections.size(), loaded.chain_length, loaded.tables.size(), values,
      loaded.header.iteration);
  return 0;
}

int cmd_ckpt_diff(const ArgParser& args) {
  ThreadPool pool;
  const CheckpointReader reader(&pool);
  const LoadedCheckpoint a = reader.load(args.positional(0));
  const LoadedCheckpoint b = reader.load(args.positional(1));
  if (a.tables.size() != b.tables.size()) {
    std::printf("table count differs: %zu vs %zu\n", a.tables.size(), b.tables.size());
    return 1;
  }

  auto span_max_diff = [](std::span<const float> x, std::span<const float> y) {
    double max_diff = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      max_diff = std::max(max_diff, static_cast<double>(std::fabs(x[i] - y[i])));
    }
    return max_diff;
  };

  double mlp_diff = 0.0;
  bool mlp_shape_ok = true;
  for (const auto& [x, y] : {std::pair{&a.bottom_params, &b.bottom_params},
                             std::pair{&a.top_params, &b.top_params}}) {
    mlp_shape_ok = mlp_shape_ok && x->size() == y->size();
    for (std::size_t v = 0; mlp_shape_ok && v < x->size(); ++v) {
      mlp_shape_ok = (*x)[v].size() == (*y)[v].size();
      if (mlp_shape_ok) mlp_diff = std::max(mlp_diff, span_max_diff((*x)[v], (*y)[v]));
    }
  }

  TablePrinter table({"table", "rows", "dim", "max |a-b|", "rows differing"});
  double global_max = 0.0;
  bool identical = mlp_shape_ok && mlp_diff == 0.0;
  for (std::size_t t = 0; t < a.tables.size(); ++t) {
    const LoadedTable& ta = a.tables[t];
    const LoadedTable& tb = b.tables[t];
    if (ta.rows != tb.rows || ta.dim != tb.dim) {
      table.add_row({std::to_string(t),
                     std::to_string(ta.rows) + "/" + std::to_string(tb.rows),
                     std::to_string(ta.dim) + "/" + std::to_string(tb.dim),
                     "shape mismatch", "-"});
      identical = false;
      continue;
    }
    double max_diff = 0.0;
    std::size_t rows_differing = 0;
    for (std::size_t r = 0; r < ta.rows; ++r) {
      const double row_diff = span_max_diff(
          std::span<const float>(ta.values).subspan(r * ta.dim, ta.dim),
          std::span<const float>(tb.values).subspan(r * ta.dim, ta.dim));
      if (row_diff > 0.0) ++rows_differing;
      max_diff = std::max(max_diff, row_diff);
    }
    global_max = std::max(global_max, max_diff);
    table.add_row({std::to_string(t), std::to_string(ta.rows),
                   std::to_string(ta.dim), TablePrinter::num(max_diff, 6),
                   std::to_string(rows_differing)});
  }
  std::printf("%s\n", table.to_string().c_str());
  if (mlp_shape_ok) {
    std::printf("mlp max |a-b|: %.6g\n", mlp_diff);
  } else {
    std::printf("mlp shapes differ\n");
  }
  std::printf("embedding max |a-b|: %.6g\n", global_max);
  identical = identical && global_max == 0.0;
  std::printf("checkpoints %s\n", identical ? "are identical" : "differ");
  return identical ? 0 : 1;  // diff semantics: nonzero on any difference
}

}  // namespace

extern const Command kCkptSave{
    "ckpt save", "<out.dlck>", kCkptSaveFlags, cmd_ckpt_save,
    "trains briefly and saves a full checkpoint, tables through --codec"};
extern const Command kCkptInspect{
    "ckpt inspect", "<in.dlck>", {}, cmd_ckpt_inspect,
    "prints the container header and section inventory"};
extern const Command kCkptVerify{
    "ckpt verify", "<in.dlck>", {}, cmd_ckpt_verify,
    "checks every section CRC and replays the full delta chain"};
extern const Command kCkptDiff{
    "ckpt diff", "<a.dlck> <b.dlck>", {}, cmd_ckpt_diff,
    "prints per-table max |a-b|; exits 1 when the checkpoints differ"};

}  // namespace dlcomp::cli
