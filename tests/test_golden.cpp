// Golden bytes: CRCs of the embedding tables, a short compressed training
// run (loss history, wire streams, simulated clock, held-out eval and the
// checkpoint files it writes) and a served score stream, recorded from a
// gcc build. A change that moves any of them on purpose updates the value
// here and says why in CHANGES.md; any other move is a regression.
//
// Bytes are gcc's contract (as for the codec streams CI diffs across SIMD
// tiers): clang may legally round the dense path differently, so the
// suite skips there. The library builds with -ffp-contract=off, so a
// -march=native build must pass it too.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "compress/registry.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "dlrm/embedding_table.hpp"
#include "serve/simulator.hpp"

namespace dlcomp {
namespace {

#if defined(__clang__)
#define DLCOMP_SKIP_UNLESS_GCC() \
  GTEST_SKIP() << "golden bytes are recorded from gcc; clang may round the dense path differently"
#else
#define DLCOMP_SKIP_UNLESS_GCC() (void)0
#endif

/// Hex text of a value's bits, so a failure prints the value to record.
std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

std::string hex64(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

template <typename T>
std::uint32_t fold(std::uint32_t state, const T& value) {
  return crc32_update(state, std::as_bytes(std::span<const T>(&value, 1)));
}

/// CRC over every table's weights, in table order.
std::uint32_t embedding_set_crc(const DatasetSpec& spec, std::uint64_t seed) {
  std::uint32_t crc = crc32_init();
  for (const EmbeddingTable& table : make_embedding_set(spec, seed)) {
    crc = crc32_update(crc, std::as_bytes(table.weights().flat()));
  }
  return crc32_final(crc);
}

std::uint32_t file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  return crc32(std::as_bytes(std::span<const char>(bytes)));
}

TEST(Golden, EmbeddingSetCrcs) {
  DLCOMP_SKIP_UNLESS_GCC();
  EXPECT_EQ(hex32(embedding_set_crc(DatasetSpec::criteo_terabyte_like(20000), 42)),
            "0x801109d8");
  EXPECT_EQ(hex32(embedding_set_crc(DatasetSpec::criteo_kaggle_like(20000), 42)),
            "0x02afdc6c");
}

TEST(Golden, CodecStreams) {
  DLCOMP_SKIP_UNLESS_GCC();
  // One table's lookups for a Zipf batch: repeated rows, as on the wire.
  const DatasetSpec spec = DatasetSpec::small_training_proxy(2, 16);
  const SyntheticClickDataset data(spec, 3);
  const SampleBatch batch = data.make_batch(512, 0);
  Matrix lookups(batch.batch_size(), spec.embedding_dim);
  make_embedding_set(spec, 3)[0].lookup(batch.indices[0], lookups);
  CompressParams params;
  params.vector_dim = spec.embedding_dim;

  const std::pair<std::string_view, std::string_view> golden[] = {
      {"hybrid", "0x1ce9131c"},       {"vector-lz", "0x6a943087"},
      {"huffman", "0x9954cfdb"},      {"generic-lz", "0x69f09ae4"},
      {"deflate-like", "0x2ded9725"}, {"cusz-like", "0xb7093c82"},
      {"fz-gpu-like", "0x0b0ff6c4"},  {"zfp-like", "0xab2dcf74"},
      {"fp16", "0x2758a914"},         {"fp8", "0xbb8906b6"},
  };
  ASSERT_EQ(std::size(golden), all_compressor_names().size());
  for (const auto& [name, crc] : golden) {
    std::vector<std::byte> stream;
    (void)get_compressor(name).compress(lookups.flat(), params, stream);
    EXPECT_EQ(hex32(crc32(stream)), crc) << name;
  }
}

/// A world-4 sim run: 2 stages, overlap, Adagrad, eval every 4 and
/// checkpoints every 4 (the second a delta), all through `codec` ("" is
/// the uncompressed baseline on the wire and raw storage on disk).
TrainerConfig training_config(const std::string& codec,
                              const std::filesystem::path& dir) {
  TrainerConfig config;
  config.world = 4;
  config.global_batch = 64;
  config.iterations = 8;
  config.model.bottom_hidden = {16};
  config.model.top_hidden = {16};
  config.model.learning_rate = 0.05f;
  config.model.embedding_optimizer = EmbeddingOptimizerKind::kAdagrad;
  config.compression.codec = codec;
  config.compression.global_eb = 0.02;
  config.overlap.forward = true;
  config.overlap.backward = true;
  config.overlap.pipeline_stages = 2;
  config.record_every = 1;
  config.eval_every = 4;
  config.eval_batches = 2;
  config.checkpoint.directory = dir.string();
  config.checkpoint.every = 4;
  config.checkpoint.full_every = 2;  // the second save is a delta
  config.checkpoint.codec = codec;
  config.seed = 9;
  return config;
}

/// CRC over the bits of every recorded iteration.
std::uint32_t history_crc(const TrainingResult& result) {
  std::uint32_t history = crc32_init();
  for (const IterationRecord& rec : result.history) {
    history = fold(history, static_cast<std::uint64_t>(rec.iter));
    for (const double v : {rec.train_loss, rec.train_accuracy,
                           rec.eval_accuracy, rec.forward_cr, rec.eb_scale}) {
      history = fold(history, v);
    }
  }
  return crc32_final(history);
}

/// CRC over what the model computed: every recorded iteration's train
/// loss and accuracy, eval accuracy and error-bound scale, then the final
/// eval loss. It leaves out forward_cr, so a change to the wire format
/// alone must not move it.
std::uint32_t loss_crc(const TrainingResult& result) {
  std::uint32_t crc = crc32_init();
  for (const IterationRecord& rec : result.history) {
    crc = fold(crc, static_cast<std::uint64_t>(rec.iter));
    for (const double v : {rec.train_loss, rec.train_accuracy,
                           rec.eval_accuracy, rec.eb_scale}) {
      crc = fold(crc, v);
    }
  }
  crc = fold(crc, result.final_eval.loss);
  return crc32_final(crc);
}

TEST(Golden, CompressedTrainingRun) {
  DLCOMP_SKIP_UNLESS_GCC();
  const DatasetSpec spec = DatasetSpec::small_training_proxy(6, 8);
  const SyntheticClickDataset data(spec, 5);
  const auto dir = std::filesystem::temp_directory_path() / "dlcomp_golden_train";
  std::filesystem::remove_all(dir);

  const TrainerConfig config = training_config("hybrid", dir);
  const TrainingResult result = HybridParallelTrainer(config).train(data);

  ASSERT_EQ(result.history.size(), 8u);
  EXPECT_EQ(hex32(history_crc(result)), "0x00fbfafb");
  EXPECT_EQ(hex32(loss_crc(result)), "0x44f289c3");
  EXPECT_EQ(hex32(result.wire_crc32), "0xd32ec819");
  EXPECT_EQ(hex64(result.makespan_seconds), "0x3f4615a395b5350e");
  EXPECT_EQ(hex64(result.final_eval.loss), "0x3fe67abc6c96b332");
  EXPECT_EQ(hex64(result.final_eval.accuracy), "0x3fde000000000000");

  ASSERT_EQ(result.checkpoints_written.size(), 2u);
  EXPECT_EQ(hex32(file_crc(result.checkpoints_written[0])), "0x781e2920");
  EXPECT_EQ(hex32(file_crc(result.checkpoints_written[1])), "0x4446e186");

  // Resuming from the full snapshot replays the rest of the run from the
  // restored tables, optimizer state and MLPs.
  TrainerConfig resumed = config;
  resumed.checkpoint.directory.clear();
  resumed.checkpoint.resume_from = result.checkpoints_written[0];
  const TrainingResult rest = HybridParallelTrainer(resumed).train(data);
  ASSERT_EQ(rest.history.size(), 4u);
  EXPECT_EQ(hex32(rest.wire_crc32), "0xe81b6054");
  EXPECT_EQ(hex64(rest.final_eval.loss), "0x3fe67b76afaf939d");
  std::filesystem::remove_all(dir);
}

TEST(Golden, RawTrainingRun) {
  DLCOMP_SKIP_UNLESS_GCC();
  // The uncompressed baseline: raw floats on the wire, raw tables on disk.
  const DatasetSpec spec = DatasetSpec::small_training_proxy(6, 8);
  const SyntheticClickDataset data(spec, 5);
  const auto dir = std::filesystem::temp_directory_path() / "dlcomp_golden_raw";
  std::filesystem::remove_all(dir);

  const TrainingResult result =
      HybridParallelTrainer(training_config("", dir)).train(data);

  ASSERT_EQ(result.history.size(), 8u);
  EXPECT_EQ(hex32(history_crc(result)), "0x4700e7f0");
  EXPECT_EQ(hex32(loss_crc(result)), "0x9f6138f3");
  EXPECT_EQ(hex32(result.wire_crc32), "0x684f9127");
  ASSERT_EQ(result.checkpoints_written.size(), 2u);
  EXPECT_EQ(hex32(file_crc(result.checkpoints_written[0])), "0x0a06cffb");
  EXPECT_EQ(hex32(file_crc(result.checkpoints_written[1])), "0x8266377d");
  std::filesystem::remove_all(dir);
}

/// One replica over a 2-shard store with 64-row pages in `codec` ("" is
/// raw pages) and a 64 KiB cache.
ServingConfig serving_config(const std::string& codec) {
  ServingConfig config;
  config.spec = DatasetSpec::small_training_proxy(6, 16);
  config.load.pattern = ArrivalPattern::kPoisson;
  config.load.qps = 4000.0;
  config.load.num_queries = 150;
  config.load.mean_query_size = 8;
  config.load.max_query_size = 64;
  config.load.seed = 7;
  config.scheduler.max_batch_samples = 128;
  config.scheduler.max_delay_s = 0.002;
  config.replicas = 1;
  config.seed = 9;
  config.store.num_shards = 2;
  config.store.rows_per_page = 64;
  config.store.codec = codec;
  config.store.error_bound = 0.01;
  config.store.cache_budget_bytes = 64 << 10;
  return config;
}

TEST(Golden, ServedScores) {
  DLCOMP_SKIP_UNLESS_GCC();
  EXPECT_EQ(hex32(ServingSimulator(serving_config("hybrid")).run().scores_crc32),
            "0xffff9cb8");
  EXPECT_EQ(hex32(ServingSimulator(serving_config("")).run().scores_crc32),
            "0x1b26973d");
}

}  // namespace
}  // namespace dlcomp
