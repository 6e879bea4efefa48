// Checkpoint subsystem tests: the round-trip guarantees the container
// must uphold -- (a) lossless snapshots restore bitwise-identical state,
// (b) lossy snapshots respect every table's error bound, (c) full+delta
// chain replay matches a fresh full snapshot, (d) resuming training from
// a lossless checkpoint replays the uninterrupted loss history, and (e)
// serving from a lossless checkpoint reproduces in-memory predictions --
// plus corruption robustness of the parser.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "obs/metrics.hpp"
#include "serve/inference_engine.hpp"
#include "data/synthetic.hpp"

namespace dlcomp {
namespace {

std::string test_dir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("dlcomp_ckpt_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

double max_abs_diff(std::span<const float> a, std::span<const float> b) {
  EXPECT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff,
                        static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return max_diff;
}

DatasetSpec proxy_spec(std::size_t tables = 6, std::size_t dim = 8) {
  return DatasetSpec::small_training_proxy(tables, dim);
}

/// A model with non-trivial weights: a few real training steps.
DlrmModel trained_model(const DatasetSpec& spec,
                        const SyntheticClickDataset& data,
                        std::size_t steps, std::uint64_t seed,
                        DlrmConfig config = {}) {
  DlrmModel model(spec, config, seed);
  for (std::size_t i = 0; i < steps; ++i) {
    (void)model.train_step(data.make_batch(64, i));
  }
  return model;
}

TEST(Checkpoint, LosslessRoundTripIsBitwise) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 3);
  DlrmModel model = trained_model(spec, data, 8, 17);

  const std::string dir = test_dir("lossless");
  const std::string path = dir + "/full.dlck";
  CheckpointWriter writer({});  // no codec: raw float32
  writer.save_full(path, make_model_state(model, 8, 17));

  DlrmModel restored(spec, {}, 99);  // different seed: different weights
  load_checkpoint_into(restored, path);

  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    EXPECT_EQ(max_abs_diff(model.table(t).weights().flat(),
                           restored.table(t).weights().flat()),
              0.0)
        << "table " << t;
  }
  const auto views_a = model.bottom_mlp().param_views();
  const auto views_b = restored.bottom_mlp().param_views();
  ASSERT_EQ(views_a.size(), views_b.size());
  for (std::size_t v = 0; v < views_a.size(); ++v) {
    EXPECT_EQ(max_abs_diff(views_a[v], views_b[v]), 0.0);
  }
}

TEST(Checkpoint, LossyRoundTripWithinBoundEveryRow) {
  const DatasetSpec spec = proxy_spec(6, 16);
  const SyntheticClickDataset data(spec, 4);
  DlrmModel model = trained_model(spec, data, 6, 21);
  const std::string dir = test_dir("lossy");

  for (const char* codec : {"hybrid", "cusz-like"}) {
    for (const double eb : {0.005, 0.03}) {
      CheckpointOptions options;
      options.codec = codec;
      options.global_eb = eb;
      ThreadPool pool(4);
      options.pool = &pool;
      CheckpointWriter writer(options);
      const std::string path =
          dir + "/" + codec + "_" + std::to_string(eb) + ".dlck";
      writer.save_full(path, make_model_state(model));

      const LoadedCheckpoint loaded = CheckpointReader(&pool).load(path);
      ASSERT_EQ(loaded.tables.size(), model.num_tables());
      for (std::size_t t = 0; t < loaded.tables.size(); ++t) {
        EXPECT_TRUE(loaded.tables[t].lossy);
        EXPECT_LE(max_abs_diff(model.table(t).weights().flat(),
                               loaded.tables[t].values),
                  eb + 1e-12)
            << codec << " eb=" << eb << " table " << t;
      }
      // MLP parameters stay exact regardless of the table codec.
      DlrmModel restored(spec, {}, 1);
      load_checkpoint_into(restored, path);
      const auto views_a = model.top_mlp().param_views();
      const auto views_b = restored.top_mlp().param_views();
      for (std::size_t v = 0; v < views_a.size(); ++v) {
        EXPECT_EQ(max_abs_diff(views_a[v], views_b[v]), 0.0);
      }
    }
  }
}

TEST(Checkpoint, PerTableBoundsApplied) {
  const DatasetSpec spec = proxy_spec(4, 8);
  const SyntheticClickDataset data(spec, 5);
  DlrmModel model = trained_model(spec, data, 5, 23);

  CheckpointOptions options;
  options.codec = "hybrid";
  options.table_eb = {0.002, 0.01, 0.05, 0.1};
  CheckpointWriter writer(options);
  const std::string path = test_dir("pertable") + "/full.dlck";
  writer.save_full(path, make_model_state(model));

  const LoadedCheckpoint loaded = CheckpointReader().load(path);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(loaded.tables[t].error_bound, options.table_eb[t]);
    EXPECT_LE(max_abs_diff(model.table(t).weights().flat(),
                           loaded.tables[t].values),
              options.table_eb[t] + 1e-12)
        << "table " << t;
  }
}

TEST(Checkpoint, OptionsFromPolicyAndPlan) {
  // The trainer's wire-compression policy and the offline analyzer's
  // plan both translate into at-rest options with per-table bounds.
  CompressionPolicy policy;
  policy.codec = "cusz-like";
  policy.table_eb = {0.01, 0.02, 0.03};
  policy.global_eb = 0.5;
  policy.table_choice = {HybridChoice::kVectorLz, HybridChoice::kHuffman,
                         HybridChoice::kAuto};
  const CheckpointOptions from_policy = checkpoint_options_from(policy);
  EXPECT_EQ(from_policy.codec, "cusz-like");
  EXPECT_EQ(from_policy.table_eb, policy.table_eb);
  EXPECT_DOUBLE_EQ(from_policy.global_eb, 0.5);
  EXPECT_EQ(from_policy.table_choice, policy.table_choice);

  CompressionPlan plan;
  for (std::size_t t = 0; t < 3; ++t) {
    CompressionPlan::Table table;
    table.table_id = t;
    table.error_bound = 0.01 * static_cast<double>(t + 1);
    table.choice = HybridChoice::kHuffman;
    plan.tables.push_back(table);
  }
  const CheckpointOptions from_plan = checkpoint_options_from(plan);
  EXPECT_EQ(from_plan.codec, "hybrid");
  EXPECT_EQ(from_plan.table_eb, (std::vector<double>{0.01, 0.02, 0.03}));
  EXPECT_EQ(from_plan.table_choice,
            (std::vector<HybridChoice>(3, HybridChoice::kHuffman)));

  // And the translated options actually drive a snapshot: per-table
  // bounds land in the container.
  const DatasetSpec spec = proxy_spec(3, 8);
  const SyntheticClickDataset data(spec, 2);
  DlrmModel model = trained_model(spec, data, 4, 11);
  CheckpointWriter writer(from_policy);
  const std::string path = test_dir("from_policy") + "/full.dlck";
  writer.save_full(path, make_model_state(model));
  const LoadedCheckpoint loaded = CheckpointReader().load(path);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_DOUBLE_EQ(loaded.tables[t].error_bound, policy.table_eb[t]);
    EXPECT_LE(max_abs_diff(model.table(t).weights().flat(),
                           loaded.tables[t].values),
              policy.table_eb[t] + 1e-12);
  }
}

TEST(Checkpoint, LosslessDeltaChainIsBitwise) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 6);
  DlrmModel model(spec, {}, 31);
  const std::string dir = test_dir("delta_lossless");

  CheckpointWriter writer({});
  for (std::size_t i = 0; i < 3; ++i) (void)model.train_step(data.make_batch(64, i));
  writer.save_full(dir + "/c0.dlck", make_model_state(model, 3));
  for (std::size_t i = 3; i < 6; ++i) (void)model.train_step(data.make_batch(64, i));
  writer.save_delta(dir + "/c1.dlck", make_model_state(model, 6));
  for (std::size_t i = 6; i < 9; ++i) (void)model.train_step(data.make_batch(64, i));
  writer.save_delta(dir + "/c2.dlck", make_model_state(model, 9));

  const LoadedCheckpoint loaded = CheckpointReader().load(dir + "/c2.dlck");
  EXPECT_EQ(loaded.chain_length, 3u);
  EXPECT_EQ(loaded.header.iteration, 9u);
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    EXPECT_EQ(max_abs_diff(model.table(t).weights().flat(),
                           loaded.tables[t].values),
              0.0)
        << "table " << t;
  }
}

TEST(Checkpoint, LossyDeltaChainStaysWithinBound) {
  // (c): replaying full + deltas must match the live model within the
  // same bound a fresh full snapshot guarantees -- error must not
  // accumulate across the chain.
  const DatasetSpec spec = proxy_spec(6, 16);
  const SyntheticClickDataset data(spec, 7);
  DlrmModel model(spec, {}, 37);
  const std::string dir = test_dir("delta_lossy");
  const double eb = 0.01;

  CheckpointOptions options;
  options.codec = "hybrid";
  options.global_eb = eb;
  CheckpointWriter writer(options);

  std::size_t step = 0;
  auto advance = [&](std::size_t steps) {
    for (std::size_t i = 0; i < steps; ++i) {
      (void)model.train_step(data.make_batch(64, step++));
    }
  };

  advance(3);
  writer.save_full(dir + "/c0.dlck", make_model_state(model, step));
  std::vector<std::string> chain;
  for (int d = 0; d < 4; ++d) {
    advance(2);
    const std::string path = dir + "/d" + std::to_string(d) + ".dlck";
    writer.save_delta(path, make_model_state(model, step));
    chain.push_back(path);
  }

  // Fresh full snapshot of the same live state, for comparison.
  CheckpointWriter fresh_writer(options);
  fresh_writer.save_full(dir + "/fresh.dlck", make_model_state(model, step));

  const LoadedCheckpoint replayed = CheckpointReader().load(chain.back());
  const LoadedCheckpoint fresh = CheckpointReader().load(dir + "/fresh.dlck");
  EXPECT_EQ(replayed.chain_length, 5u);
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    const auto live = model.table(t).weights().flat();
    EXPECT_LE(max_abs_diff(live, replayed.tables[t].values), eb + 1e-12)
        << "chain table " << t;
    EXPECT_LE(max_abs_diff(live, fresh.tables[t].values), eb + 1e-12)
        << "fresh table " << t;
    // Chain replay and fresh snapshot agree within the two bounds.
    EXPECT_LE(max_abs_diff(replayed.tables[t].values, fresh.tables[t].values),
              2 * eb + 1e-12)
        << "table " << t;
  }
}

TEST(Checkpoint, DeltaTouchesOnlyMovedRows) {
  const DatasetSpec spec = proxy_spec(4, 8);
  const SyntheticClickDataset data(spec, 8);
  DlrmModel model(spec, {}, 41);
  const std::string dir = test_dir("delta_sparse");

  CheckpointWriter writer({});
  writer.save_full(dir + "/c0.dlck", make_model_state(model, 0));
  // One small batch touches only the sampled rows of each table.
  (void)model.train_step(data.make_batch(16, 0));
  writer.save_delta(dir + "/c1.dlck", make_model_state(model, 1));

  const ContainerInfo full = inspect_checkpoint(dir + "/c0.dlck");
  const ContainerInfo delta = inspect_checkpoint(dir + "/c1.dlck");
  EXPECT_EQ(full.header.kind, CkptKind::kFull);
  EXPECT_EQ(delta.header.kind, CkptKind::kDelta);

  std::size_t total_rows = 0;
  for (const auto& table : spec.tables) total_rows += table.cardinality;
  EXPECT_GT(delta.delta_touched_rows, 0u);
  // A 16-sample batch can touch at most 16 rows per table.
  EXPECT_LE(delta.delta_touched_rows, 16 * spec.num_tables());
  EXPECT_LT(delta.delta_touched_rows, total_rows);
  EXPECT_LT(delta.file_bytes, full.file_bytes);
}

TEST(Checkpoint, AdagradStateRestoredExactly) {
  const DatasetSpec spec = proxy_spec(3, 8);
  const SyntheticClickDataset data(spec, 9);
  DlrmConfig config;
  config.embedding_optimizer = EmbeddingOptimizerKind::kAdagrad;
  DlrmModel model = trained_model(spec, data, 6, 43, config);

  const std::string path = test_dir("adagrad") + "/full.dlck";
  CheckpointWriter writer({});
  writer.save_full(path, make_model_state(model, 6, 43));

  DlrmModel restored(spec, config, 99);
  load_checkpoint_into(restored, path);
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    const Matrix& a = model.optimizer(t).accumulator();
    const Matrix& b = restored.optimizer(t).accumulator();
    ASSERT_EQ(a.rows(), b.rows()) << "table " << t;
    EXPECT_EQ(max_abs_diff(a.flat(), b.flat()), 0.0) << "table " << t;
  }

  // Both models take the same next step and land on identical losses.
  const SampleBatch next = data.make_batch(64, 100);
  EXPECT_DOUBLE_EQ(model.train_step(next).loss,
                   restored.train_step(next).loss);
}

TEST(Checkpoint, ResumeMatchesUninterruptedLossHistory) {
  // (d): save at iteration 10 of 16, resume in a fresh trainer, and the
  // post-resume loss history must equal the uninterrupted run's exactly.
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 10);

  TrainerConfig config;
  config.world = 2;
  config.global_batch = 64;
  config.iterations = 16;
  config.model.bottom_hidden = {16};
  config.model.top_hidden = {16};
  config.model.learning_rate = 0.05f;
  config.record_every = 1;
  config.seed = 9;

  const TrainingResult uninterrupted =
      HybridParallelTrainer(config).train(data);

  const std::string dir = test_dir("resume");
  TrainerConfig save_config = config;
  save_config.checkpoint.directory = dir;
  save_config.checkpoint.every = 5;
  const TrainingResult first_leg =
      HybridParallelTrainer(save_config).train(data);
  ASSERT_GE(first_leg.checkpoints_written.size(), 2u);
  EXPECT_EQ(first_leg.checkpoints_written[1], dir + "/ckpt_000010.dlck");

  TrainerConfig resume_config = config;
  resume_config.checkpoint.resume_from = first_leg.checkpoints_written[1];
  const TrainingResult resumed =
      HybridParallelTrainer(resume_config).train(data);
  EXPECT_EQ(resumed.start_iteration, 10u);
  ASSERT_EQ(resumed.history.size(), 6u);

  // Compare iterations 10..15 against the uninterrupted run.
  ASSERT_EQ(uninterrupted.history.size(), config.iterations);
  for (const IterationRecord& rec : resumed.history) {
    const IterationRecord& ref = uninterrupted.history.at(rec.iter);
    ASSERT_EQ(ref.iter, rec.iter);
    EXPECT_DOUBLE_EQ(rec.train_loss, ref.train_loss) << "iter " << rec.iter;
    EXPECT_DOUBLE_EQ(rec.train_accuracy, ref.train_accuracy);
  }
  EXPECT_DOUBLE_EQ(resumed.final_eval.loss, uninterrupted.final_eval.loss);
}

TEST(Checkpoint, ResumeFromDeltaChainMatchesToo) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 11);

  TrainerConfig config;
  config.world = 2;
  config.global_batch = 64;
  config.iterations = 12;
  config.model.bottom_hidden = {16};
  config.model.top_hidden = {16};
  config.record_every = 1;
  config.seed = 13;
  config.model.embedding_optimizer = EmbeddingOptimizerKind::kAdagrad;

  const TrainingResult uninterrupted =
      HybridParallelTrainer(config).train(data);

  const std::string dir = test_dir("resume_delta");
  TrainerConfig save_config = config;
  save_config.checkpoint.directory = dir;
  save_config.checkpoint.every = 4;
  save_config.checkpoint.full_every = 4;  // full at 4, deltas after
  const TrainingResult first_leg =
      HybridParallelTrainer(save_config).train(data);
  ASSERT_GE(first_leg.checkpoints_written.size(), 2u);
  const std::string delta_path = first_leg.checkpoints_written[1];
  EXPECT_EQ(inspect_checkpoint(delta_path).header.kind, CkptKind::kDelta);

  TrainerConfig resume_config = config;
  resume_config.checkpoint.resume_from = delta_path;
  const TrainingResult resumed =
      HybridParallelTrainer(resume_config).train(data);
  EXPECT_EQ(resumed.start_iteration, 8u);
  for (const IterationRecord& rec : resumed.history) {
    EXPECT_DOUBLE_EQ(rec.train_loss,
                     uninterrupted.history.at(rec.iter).train_loss)
        << "iter " << rec.iter;
  }
}

TEST(Checkpoint, ServingFromLosslessCheckpointMatchesInMemory) {
  // (e): an engine loaded from a checkpoint scores exactly like the
  // in-memory model the checkpoint was taken from.
  const DatasetSpec spec = proxy_spec(5, 8);
  const SyntheticClickDataset data(spec, 12);

  InferenceEngine live(spec, {}, {}, 55);
  for (std::size_t i = 0; i < 10; ++i) {
    (void)live.model().train_step(data.make_batch(64, i));
  }
  const std::string path = test_dir("serve") + "/model.dlck";
  CheckpointWriter writer({});
  writer.save_full(path, make_model_state(live.model(), 10, 55));

  EngineConfig engine_config;
  engine_config.checkpoint_path = path;
  InferenceEngine from_ckpt(spec, {}, engine_config, 777);

  const SampleBatch batch = data.make_eval_batch(64, 0);
  const std::vector<float> expect = live.run(batch);
  const std::vector<float> got = from_ckpt.run(batch);
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i], got[i]) << "sample " << i;
  }
}

TEST(Checkpoint, CorruptionIsDetected) {
  const DatasetSpec spec = proxy_spec(3, 8);
  const SyntheticClickDataset data(spec, 13);
  DlrmModel model = trained_model(spec, data, 3, 61);
  const std::string dir = test_dir("corrupt");
  const std::string path = dir + "/full.dlck";
  CheckpointWriter writer({});
  writer.save_full(path, make_model_state(model));

  const auto original = read_container(path);

  // Bad magic.
  {
    auto bad = original;
    bad[0] ^= std::byte{0xFF};
    write_file(dir + "/bad.dlck", bad);
    EXPECT_THROW((void)CheckpointReader().load(dir + "/bad.dlck"),
                 FormatError);
  }
  // Wrong container version (u16 at offset 4).
  {
    auto bad = original;
    bad[4] = std::byte{0x7F};
    write_file(dir + "/bad.dlck", bad);
    EXPECT_THROW((void)CheckpointReader().load(dir + "/bad.dlck"),
                 FormatError);
  }
  // Payload bit flips anywhere must be caught by a section CRC (or the
  // framing checks, for damage to section headers).
  for (const std::size_t pos :
       {std::size_t{60}, original.size() / 2, original.size() - 3}) {
    auto bad = original;
    bad[pos] ^= std::byte{0x10};
    write_file(dir + "/bad.dlck", bad);
    EXPECT_THROW((void)CheckpointReader().load(dir + "/bad.dlck"),
                 FormatError)
        << "flip at " << pos;
  }
  // Truncations anywhere must fail cleanly.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, original.size() / 3,
        original.size() - 1}) {
    auto cut = original;
    cut.resize(keep);
    write_file(dir + "/cut.dlck", cut);
    EXPECT_THROW((void)CheckpointReader().load(dir + "/cut.dlck"),
                 FormatError)
        << "kept " << keep;
  }
}

/// Writes a container through SectionWriter's two passes: a measuring
/// pass sizes the image, then `emit` fills it.
template <typename Emit>
void write_crafted(const std::string& path, const Emit& emit) {
  SectionWriter measure;
  emit(measure);
  std::vector<std::byte> image(measure.position());
  SectionWriter w(image);
  emit(w);
  write_file(path, image);
}

/// File header, meta and empty MLP sections of a crafted raw container.
void put_crafted_head(SectionWriter& w, CkptKind kind, std::uint64_t id,
                      std::uint64_t parent_id, const std::string& parent_file,
                      std::uint32_t sections, std::uint32_t tables) {
  CkptHeader header;
  header.kind = kind;
  header.checkpoint_id = id;
  header.parent_id = parent_id;
  header.iteration = id;
  header.section_count = sections;
  w.put_header(header);
  w.begin(CkptSection::kMeta, 0);
  w.put_string("");                                   // codec: raw
  w.put(std::uint8_t{0});                             // opt kind
  w.put_string(parent_file);
  w.put(tables);
  w.end();
  for (const auto mlp : {CkptSection::kMlpBottom, CkptSection::kMlpTop}) {
    w.begin(mlp, 0);
    w.put(std::uint32_t{0});                          // zero param views
    w.end();
  }
}

/// One crafted row delta: its touched count, the rows its bitmap marks
/// and how many zero rows of values it carries.
struct CraftedDelta {
  std::uint64_t touched = 0;
  std::vector<std::uint64_t> marked;
  std::uint64_t packed_rows = 0;
};

/// A row delta's index: touched count, then one bitmap bit per row.
void put_crafted_index(SectionWriter& w, std::uint64_t rows,
                       const CraftedDelta& delta) {
  w.put(delta.touched);
  std::vector<std::byte> bitmap((rows + 7) / 8, std::byte{0});
  for (const std::uint64_t r : delta.marked) {
    bitmap[r / 8] |= static_cast<std::byte>(1u << (r % 8));
  }
  w.put_bytes(bitmap);
}

/// A raw delta on `parent_file` whose table 0 carries `weights` (and
/// `opt`, if given, as its optimizer delta); other tables are unchanged.
void write_crafted_delta(const std::string& path,
                         const std::string& parent_file,
                         std::uint64_t parent_id,
                         const std::vector<std::uint64_t>& rows,
                         std::uint32_t dim, const CraftedDelta& weights,
                         const CraftedDelta* opt = nullptr) {
  const auto tables = static_cast<std::uint32_t>(rows.size());
  const auto values = [&](const CraftedDelta& delta) {
    return std::vector<std::byte>(delta.packed_rows * dim * sizeof(float));
  };
  write_crafted(path, [&](SectionWriter& w) {
    put_crafted_head(w, CkptKind::kDelta, parent_id + 1, parent_id,
                     parent_file, 3 + tables * (opt != nullptr ? 2 : 1),
                     tables);
    for (std::uint32_t t = 0; t < tables; ++t) {
      const CraftedDelta delta = t == 0 ? weights : CraftedDelta{};
      w.begin(CkptSection::kTableDelta, t);
      w.put(rows[t]);
      w.put(dim);
      w.put(std::uint8_t{0});                         // raw storage
      w.put(0.0);                                     // eb
      put_crafted_index(w, rows[t], delta);
      w.put(static_cast<std::uint64_t>(values(delta).size()));
      w.put_bytes(values(delta));
      w.end();
      if (opt == nullptr) continue;
      const CraftedDelta opt_delta = t == 0 ? *opt : CraftedDelta{};
      w.begin(CkptSection::kOptDelta, t);
      w.put(rows[t]);
      w.put(dim);
      w.put(std::uint8_t{1});                         // state present
      put_crafted_index(w, rows[t], opt_delta);
      w.put_bytes(values(opt_delta));
      w.end();
    }
  });
}

TEST(Checkpoint, CraftedDeltaCountsRejected) {
  // CRC protects against corruption, not crafted files: a delta whose
  // touched count disagrees with its table or its bitmap must be
  // rejected, not replayed. That holds for table and optimizer deltas.
  const DatasetSpec spec = proxy_spec(3, 8);
  DlrmModel model(spec, {}, 83);
  const std::string dir = test_dir("crafted");
  CheckpointWriter writer({});
  writer.save_full(dir + "/c0.dlck", make_model_state(model, 0));
  const std::uint64_t parent_id =
      inspect_checkpoint(dir + "/c0.dlck").header.checkpoint_id;
  std::vector<std::uint64_t> rows;
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    rows.push_back(model.table(t).rows());
  }
  const std::string path = dir + "/crafted.dlck";
  const auto load = [&] { return CheckpointReader().load(path); };

  // touched * dim = 2^61 * 8 wraps to 0 in 64 bits.
  write_crafted_delta(path, "c0.dlck", parent_id, rows, 8,
                      {std::uint64_t{1} << 61, {0}, 0});
  EXPECT_THROW((void)load(), FormatError);
  // Bitmap popcount above, then below, the touched count.
  write_crafted_delta(path, "c0.dlck", parent_id, rows, 8, {1, {0, 1}, 1});
  EXPECT_THROW((void)load(), FormatError);
  write_crafted_delta(path, "c0.dlck", parent_id, rows, 8, {2, {0}, 2});
  EXPECT_THROW((void)load(), FormatError);

  // The same three faults in an optimizer delta.
  const CraftedDelta one_row{1, {0}, 1};
  const CraftedDelta bad_opt[] = {
      {rows[0] + 1, {0}, rows[0] + 1}, {1, {0, 1}, 1}, {2, {0}, 2}};
  for (const CraftedDelta& opt : bad_opt) {
    write_crafted_delta(path, "c0.dlck", parent_id, rows, 8, one_row, &opt);
    EXPECT_THROW((void)load(), FormatError) << "opt touched " << opt.touched;
  }
  // Control: consistent counts load, so the faults above are what the
  // reader rejects.
  write_crafted_delta(path, "c0.dlck", parent_id, rows, 8, one_row, &one_row);
  const LoadedCheckpoint good = load();
  ASSERT_EQ(good.tables[0].opt_state.size(), rows[0] * 8);
  EXPECT_EQ(good.tables[0].values[0], 0.0f);

  // A table of 2^64 - 1 rows and dim 0 has no values, but its bitmap's
  // byte count wraps to 0; a delta on it claiming every row touched must
  // not walk that empty bitmap.
  const std::uint64_t huge = ~std::uint64_t{0};
  write_crafted(dir + "/huge0.dlck", [&](SectionWriter& w) {
    put_crafted_head(w, CkptKind::kFull, 7, 0, "", 4, 1);
    w.begin(CkptSection::kTableFull, 0);
    w.put(huge);
    w.put(std::uint32_t{0});                          // dim
    w.put(std::uint8_t{0});                           // raw storage
    w.put(0.0);                                       // eb
    w.put(std::uint64_t{0});                          // no values
    w.end();
  });
  write_crafted_delta(dir + "/huge1.dlck", "huge0.dlck", 7, {huge}, 0,
                      {huge, {}, 0});
  EXPECT_THROW((void)CheckpointReader().load(dir + "/huge0.dlck"),
               FormatError);
  EXPECT_THROW((void)CheckpointReader().load(dir + "/huge1.dlck"),
               FormatError);
}

TEST(Checkpoint, FullDiskWriteThrowsAndKeepsTheChain) {
  // A write the disk cannot take must end in an Error, and leave the
  // writer's chain at the last container that did reach the disk. The
  // containers are a few hundred bytes: an ofstream keeps that much in
  // its buffer, so /dev/full refuses the bytes only when it is closed.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Rng rng(89);
  const std::size_t dims[] = {2, 2};
  Mlp bottom(dims, rng);
  Mlp top(dims, rng);
  Matrix table(16, 4);
  for (std::size_t i = 0; i < table.size(); ++i) table.flat()[i] = 0.25f * i;
  ModelState state;
  state.bottom = &bottom;
  state.top = &top;
  state.tables = {&table};
  const std::string dir = test_dir("disk_full");
  CheckpointWriter writer({});

  EXPECT_THROW(writer.save_full("/dev/full", state), Error);
  writer.save_full(dir + "/c0.dlck", state);
  ASSERT_LT(std::filesystem::file_size(dir + "/c0.dlck"), 1024u);
  table.flat()[5] += 1.0f;
  state.iteration = 1;
  EXPECT_THROW(writer.save_delta("/dev/full", state), Error);
  writer.save_delta(dir + "/c1.dlck", state);

  const LoadedCheckpoint loaded = CheckpointReader().load(dir + "/c1.dlck");
  EXPECT_EQ(loaded.chain_length, 2u);
  ASSERT_EQ(loaded.tables.size(), 1u);
  EXPECT_EQ(max_abs_diff(table.flat(), loaded.tables[0].values), 0.0);
}

TEST(Checkpoint, DeltaWithoutBaselineThrows) {
  const DatasetSpec spec = proxy_spec(3, 8);
  DlrmModel model(spec, {}, 5);
  CheckpointWriter writer({});
  EXPECT_THROW(
      writer.save_delta(test_dir("nobase") + "/d.dlck",
                        make_model_state(model)),
      Error);
}

TEST(Checkpoint, ShapeMismatchOnApplyThrows) {
  const DatasetSpec spec = proxy_spec(4, 8);
  const SyntheticClickDataset data(spec, 14);
  DlrmModel model(spec, {}, 71);
  const std::string path = test_dir("shape") + "/full.dlck";
  CheckpointWriter writer({});
  writer.save_full(path, make_model_state(model));

  DlrmModel fewer_tables(proxy_spec(3, 8), {}, 71);
  EXPECT_THROW(load_checkpoint_into(fewer_tables, path), Error);

  DlrmModel wrong_dim(proxy_spec(4, 16), {}, 71);
  EXPECT_THROW(load_checkpoint_into(wrong_dim, path), Error);
}

TEST(Checkpoint, MissingParentThrows) {
  const DatasetSpec spec = proxy_spec(3, 8);
  const SyntheticClickDataset data(spec, 15);
  DlrmModel model(spec, {}, 73);
  const std::string dir = test_dir("orphan");
  CheckpointWriter writer({});
  writer.save_full(dir + "/c0.dlck", make_model_state(model, 0));
  (void)model.train_step(data.make_batch(16, 0));
  writer.save_delta(dir + "/c1.dlck", make_model_state(model, 1));

  std::filesystem::remove(dir + "/c0.dlck");
  EXPECT_THROW((void)CheckpointReader().load(dir + "/c1.dlck"), Error);
}

TEST(Checkpoint, WriterSavePolicyAlternatesKinds) {
  const DatasetSpec spec = proxy_spec(3, 8);
  const SyntheticClickDataset data(spec, 16);
  DlrmModel model(spec, {}, 79);
  const std::string dir = test_dir("policy");

  CheckpointWriter writer({});
  std::vector<CkptKind> kinds;
  for (int i = 0; i < 5; ++i) {
    (void)model.train_step(data.make_batch(16, i));
    const std::string path = dir + "/c" + std::to_string(i) + ".dlck";
    writer.save(path, make_model_state(model, i + 1), 2);
    kinds.push_back(inspect_checkpoint(path).header.kind);
  }
  EXPECT_EQ(kinds[0], CkptKind::kFull);
  EXPECT_EQ(kinds[1], CkptKind::kDelta);
  EXPECT_EQ(kinds[2], CkptKind::kFull);
  EXPECT_EQ(kinds[3], CkptKind::kDelta);
  EXPECT_EQ(kinds[4], CkptKind::kFull);
}

std::vector<char> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Checkpoint, DominantTableBlockedSavesMatchSerialByteForByte) {
  // One table holds nearly all the state (40000 x 16 = 640k elements,
  // several compression blocks): the writer must split it across the
  // pool rather than serializing the snapshot on a single per-table
  // task, and the pooled container must still be byte-identical to the
  // serial one — full, delta, and chain replay alike.
  DatasetSpec spec;
  spec.name = "dominant";
  spec.embedding_dim = 16;
  TableSpec huge;
  huge.cardinality = 40000;
  TableSpec tiny;
  tiny.cardinality = 64;
  spec.tables = {huge, tiny, tiny};
  DlrmModel model(spec, {}, 31);
  // Same basenames in separate directories: deltas embed the parent's
  // filename, which must not differ between the two writers.
  const std::string pooled_dir = test_dir("dominant_pooled");
  const std::string serial_dir = test_dir("dominant_serial");

  auto make_writer = [&](ThreadPool* pool) {
    CheckpointOptions options;
    options.codec = "hybrid";
    options.global_eb = 0.01;
    options.pool = pool;
    return CheckpointWriter(options);
  };
  ThreadPool pool(4);
  CheckpointWriter pooled = make_writer(&pool);
  CheckpointWriter serial = make_writer(nullptr);

  const auto blocks_before = MetricsRegistry::global()
                                 .snapshot()
                                 .values["dlcomp_codec_blocks_compressed_total"];
  pooled.save_full(pooled_dir + "/full.dlck", make_model_state(model, 1, 31));
  const auto blocks_after = MetricsRegistry::global()
                                .snapshot()
                                .values["dlcomp_codec_blocks_compressed_total"];
  // 640k elements / 256Ki block elements -> the dominant table alone
  // contributes at least 3 block tasks.
  EXPECT_GE(blocks_after - blocks_before, 3.0)
      << "dominant table did not split into parallel blocks";

  serial.save_full(serial_dir + "/full.dlck", make_model_state(model, 1, 31));
  EXPECT_EQ(read_file_bytes(pooled_dir + "/full.dlck"),
            read_file_bytes(serial_dir + "/full.dlck"));

  // Touch a spread of dominant-table rows well past the bound, then
  // delta: both writers must produce identical containers and a replay
  // within the bound.
  Matrix& weights = model.table(0).weights();
  for (std::size_t r = 0; r < weights.rows(); r += 3) {
    weights.flat()[r * weights.cols()] += 1.0f;
  }
  pooled.save_delta(pooled_dir + "/delta.dlck",
                    make_model_state(model, 2, 31));
  serial.save_delta(serial_dir + "/delta.dlck",
                    make_model_state(model, 2, 31));
  EXPECT_EQ(read_file_bytes(pooled_dir + "/delta.dlck"),
            read_file_bytes(serial_dir + "/delta.dlck"));

  const LoadedCheckpoint loaded =
      CheckpointReader(&pool).load(pooled_dir + "/delta.dlck");
  ASSERT_EQ(loaded.chain_length, 2u);
  ASSERT_EQ(loaded.tables.size(), 3u);
  for (std::size_t t = 0; t < loaded.tables.size(); ++t) {
    EXPECT_LE(max_abs_diff(model.table(t).weights().flat(),
                           loaded.tables[t].values),
              0.01 + 1e-12)
        << "table " << t;
  }
}

}  // namespace
}  // namespace dlcomp
