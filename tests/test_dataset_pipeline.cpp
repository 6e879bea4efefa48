// Real-dataset ingestion pipeline: Criteo TSV parsing, the `.dlshard`
// container, the multi-threaded converter and the sharded reader.
// Covers the acceptance bar for the subsystem: converter -> reader
// round-trips are byte-exact on the checked-in fixture, corrupt shards
// are rejected before any value reaches a model, and steady-state
// reading is allocation-free (grow events go flat after warm-up).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/error.hpp"
#include "core/trainer.hpp"
#include "data/criteo_tsv.hpp"
#include "data/shard_converter.hpp"
#include "data/shard_format.hpp"
#include "data/shard_reader.hpp"
#include "data/synthetic.hpp"
#include "dlrm/model.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp {
namespace {

namespace fs = std::filesystem;

#ifndef DLCOMP_TEST_DATA_DIR
#define DLCOMP_TEST_DATA_DIR "tests/data"
#endif

std::string fixture_path() {
  return std::string(DLCOMP_TEST_DATA_DIR) + "/criteo_mini.tsv";
}

/// Per-test scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("dlcomp_test_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// The fixture parsed sample-major with the parser itself -- the
/// reference the container round-trip is compared against, bitwise.
struct ParsedFixture {
  std::vector<float> labels;
  std::vector<float> dense;                ///< sample-major
  std::vector<std::uint32_t> cats;         ///< sample-major
  std::size_t count = 0;
};

ParsedFixture parse_fixture() {
  const CriteoTsvParser parser;
  ParsedFixture ref;
  std::ifstream is(fixture_path());
  EXPECT_TRUE(is.good()) << "missing fixture " << fixture_path();
  std::string line;
  std::vector<float> dense(parser.num_dense());
  std::vector<std::uint32_t> cats(parser.num_cat());
  while (std::getline(is, line)) {
    float label = 0.0f;
    EXPECT_TRUE(parser.parse_line(line, label, dense, cats))
        << "fixture line is malformed: " << line;
    ref.labels.push_back(label);
    ref.dense.insert(ref.dense.end(), dense.begin(), dense.end());
    ref.cats.insert(ref.cats.end(), cats.begin(), cats.end());
    ++ref.count;
  }
  EXPECT_GT(ref.count, 0u);
  return ref;
}

/// DatasetSpec shaped like the fixture (13 dense, 26 tables).
DatasetSpec fixture_spec(std::size_t cardinality = 40) {
  DatasetSpec spec;
  spec.name = "fixture";
  spec.num_dense = 13;
  spec.embedding_dim = 8;
  spec.default_batch = 16;
  spec.tables.assign(26, TableSpec{.cardinality = cardinality});
  return spec;
}

ConvertReport convert_fixture(const fs::path& out_dir,
                              std::size_t samples_per_shard = 20,
                              ThreadPool* pool = nullptr) {
  ConvertOptions options;
  options.input_tsv = fixture_path();
  options.output_dir = out_dir.string();
  options.samples_per_shard = samples_per_shard;
  options.pool = pool;
  return convert_criteo_tsv(options);
}

std::vector<std::byte> read_all(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  const std::vector<char> chars{std::istreambuf_iterator<char>(is),
                                std::istreambuf_iterator<char>()};
  std::vector<std::byte> data(chars.size());
  std::memcpy(data.data(), chars.data(), chars.size());
  return data;
}

// ------------------------------------------------------------- TSV parser

TEST(CriteoTsvParser, ParsesWellFormedLine) {
  const CriteoTsvParser parser(2, 3);
  float label = -1.0f;
  std::vector<float> dense(2);
  std::vector<std::uint32_t> cats(3);
  ASSERT_TRUE(parser.parse_line("1\t3\t\tab\t\tcd", label, dense, cats));
  EXPECT_EQ(label, 1.0f);
  EXPECT_FLOAT_EQ(dense[0], std::log1p(3.0f));
  EXPECT_EQ(dense[1], 0.0f);  // missing -> 0
  EXPECT_EQ(cats[0], CriteoTsvParser::hash_token("ab"));
  EXPECT_EQ(cats[1], 0u);  // missing categorical -> reserved id 0
  EXPECT_EQ(cats[2], CriteoTsvParser::hash_token("cd"));
}

TEST(CriteoTsvParser, NegativeDenseClampsToZero) {
  EXPECT_EQ(CriteoTsvParser::transform_dense(-7), 0.0f);
  EXPECT_EQ(CriteoTsvParser::transform_dense(0), 0.0f);
  EXPECT_GT(CriteoTsvParser::transform_dense(1), 0.0f);
}

TEST(CriteoTsvParser, RejectsMalformedLines) {
  const CriteoTsvParser parser(2, 2);
  float label = 0.0f;
  std::vector<float> dense(2);
  std::vector<std::uint32_t> cats(2);
  EXPECT_FALSE(parser.parse_line("1\t2\t3\ta", label, dense, cats));      // short
  EXPECT_FALSE(parser.parse_line("1\t2\t3\ta\tb\tc", label, dense, cats)); // long
  EXPECT_FALSE(parser.parse_line("7\t2\t3\ta\tb", label, dense, cats));   // label
  EXPECT_FALSE(parser.parse_line("1\tx\t3\ta\tb", label, dense, cats));   // dense
  EXPECT_FALSE(parser.parse_line("", label, dense, cats));
}

TEST(CriteoTsvParser, ToleratesCarriageReturn) {
  const CriteoTsvParser parser(1, 1);
  float label = 0.0f;
  std::vector<float> dense(1);
  std::vector<std::uint32_t> cats(1);
  ASSERT_TRUE(parser.parse_line("0\t5\tzz\r", label, dense, cats));
  EXPECT_EQ(cats[0], CriteoTsvParser::hash_token("zz"));
}

// -------------------------------------------------- converter round trip

TEST(ShardConverter, RoundTripIsByteExact) {
  const ParsedFixture ref = parse_fixture();
  TempDir dir("roundtrip");
  ThreadPool pool(4);
  const ConvertReport report = convert_fixture(dir.path, 20, &pool);
  EXPECT_EQ(report.samples, ref.count);
  EXPECT_EQ(report.malformed_lines, 0u);
  EXPECT_EQ(report.shards, (ref.count + 19) / 20);

  // Walk the shards in file order and compare every payload bitwise
  // against the directly parsed reference.
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::size_t offset = 0;
  for (const auto& path : paths) {
    const std::vector<std::byte> bytes = read_all(path);
    const ShardView view = decode_shard(bytes);
    const std::size_t n = view.sample_count();
    ASSERT_LE(offset + n, ref.count);
    EXPECT_EQ(0, std::memcmp(view.labels.data(), ref.labels.data() + offset,
                             n * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(view.dense.data(),
                             ref.dense.data() + offset * 13,
                             n * 13 * sizeof(float)));
    // Shards are table-major; the reference is sample-major.
    for (std::size_t t = 0; t < 26; ++t) {
      for (std::size_t s = 0; s < n; ++s) {
        ASSERT_EQ(view.categorical[t * n + s],
                  ref.cats[(offset + s) * 26 + t])
            << "table " << t << " sample " << s;
      }
    }
    offset += n;
  }
  EXPECT_EQ(offset, ref.count);
}

TEST(ShardConverter, DeterministicAcrossThreadCounts) {
  TempDir serial_dir("serial");
  TempDir pooled_dir("pooled");
  convert_fixture(serial_dir.path, 20, nullptr);
  ThreadPool pool(8);
  convert_fixture(pooled_dir.path, 20, &pool);

  std::size_t compared = 0;
  for (const auto& entry : fs::directory_iterator(serial_dir.path)) {
    const fs::path twin = pooled_dir.path / entry.path().filename();
    ASSERT_TRUE(fs::exists(twin));
    EXPECT_EQ(read_all(entry.path()), read_all(twin));
    ++compared;
  }
  EXPECT_GT(compared, 1u);
}

TEST(ShardConverter, SkipsAndCountsMalformedLines) {
  TempDir dir("malformed");
  const fs::path tsv = dir.path / "bad.tsv";
  {
    std::ofstream os(tsv);
    const CriteoTsvParser parser;  // 13 + 26 shape
    os << "1";
    for (int i = 0; i < 13; ++i) os << "\t" << i;
    for (int i = 0; i < 26; ++i) os << "\tcafe" << i;
    os << "\n";
    os << "not\ta\tsample\n";
    os << "2\tbad\tlabel\n";
  }
  ConvertOptions options;
  options.input_tsv = tsv.string();
  options.output_dir = (dir.path / "shards").string();
  const ConvertReport report = convert_criteo_tsv(options);
  EXPECT_EQ(report.samples, 1u);
  EXPECT_EQ(report.malformed_lines, 2u);
  EXPECT_EQ(report.shards, 1u);
}

TEST(ShardConverter, RejectsWidthsBeyondHeaderFields) {
  // The shard header stores num_dense/num_cat as u16: wider inputs must
  // fail up front with an Error, not abort inside a pool task.
  TempDir dir("wide");
  ThreadPool pool(2);
  ConvertOptions options;
  options.input_tsv = fixture_path();
  options.output_dir = (dir.path / "shards").string();
  options.num_dense = 65537;
  options.num_cat = 2;
  options.pool = &pool;
  EXPECT_THROW(convert_criteo_tsv(options), Error);
  options.num_dense = 13;
  options.num_cat = 65536;
  EXPECT_THROW(convert_criteo_tsv(options), Error);
  std::size_t shards = 0;
  if (fs::exists(options.output_dir)) {
    for (const auto& entry : fs::directory_iterator(options.output_dir)) {
      shards += entry.path().extension() == ".dlshard";
    }
  }
  EXPECT_EQ(shards, 0u);
}

// ------------------------------------------------------ shard robustness

ShardContent small_content(std::size_t n = 5) {
  ShardContent content;
  content.num_dense = 2;
  content.num_cat = 3;
  for (std::size_t s = 0; s < n; ++s) {
    content.labels.push_back(s % 2 ? 1.0f : 0.0f);
    content.dense.push_back(static_cast<float>(s));
    content.dense.push_back(static_cast<float>(s) * 0.5f);
    for (std::size_t t = 0; t < 3; ++t) {
      content.categorical.push_back(static_cast<std::uint32_t>(s * 3 + t));
    }
  }
  // Table-major fixup: build was sample-major above for brevity.
  std::vector<std::uint32_t> table_major(content.categorical.size());
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < 3; ++t) {
      table_major[t * n + s] = content.categorical[s * 3 + t];
    }
  }
  content.categorical = std::move(table_major);
  return content;
}

TEST(ShardFormat, EncodeDecodeRoundTrip) {
  const ShardContent content = small_content();
  std::vector<std::byte> bytes;
  encode_shard(content, bytes);
  const ShardView view = decode_shard(bytes);
  EXPECT_EQ(view.sample_count(), 5u);
  EXPECT_EQ(view.header.num_dense, 2);
  EXPECT_EQ(view.header.num_cat, 3);
  EXPECT_EQ(0, std::memcmp(view.labels.data(), content.labels.data(),
                           content.labels.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(view.dense.data(), content.dense.data(),
                           content.dense.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(view.categorical.data(), content.categorical.data(),
                           content.categorical.size() * sizeof(std::uint32_t)));
}

TEST(ShardFormat, EmptyShardRoundTrips) {
  ShardContent content;
  content.num_dense = 2;
  content.num_cat = 3;
  std::vector<std::byte> bytes;
  encode_shard(content, bytes);
  const ShardView view = decode_shard(bytes);
  EXPECT_EQ(view.sample_count(), 0u);
}

TEST(ShardFormat, RejectsTruncation) {
  std::vector<std::byte> bytes;
  encode_shard(small_content(), bytes);
  for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2,
                                 std::size_t{30}, std::size_t{10}}) {
    EXPECT_THROW(decode_shard({bytes.data(), keep}), FormatError)
        << "kept " << keep << " of " << bytes.size();
  }
}

TEST(ShardFormat, RejectsCorruptedCrc) {
  std::vector<std::byte> bytes;
  encode_shard(small_content(), bytes);
  std::vector<std::byte> corrupt = bytes;
  corrupt.back() ^= std::byte{0x01};  // last payload byte
  EXPECT_THROW(decode_shard(corrupt), FormatError);
}

TEST(ShardFormat, RejectsWrongVersionNibble) {
  std::vector<std::byte> bytes;
  encode_shard(small_content(), bytes);
  bytes[4] = std::byte{0x02};  // flags byte: version nibble = 2
  EXPECT_THROW(decode_shard(bytes), FormatError);
}

TEST(ShardFormat, RejectsBadMagic) {
  std::vector<std::byte> bytes;
  encode_shard(small_content(), bytes);
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(decode_shard(bytes), FormatError);
}

// --------------------------------------------------------------- reader

struct ReaderFixture : ::testing::Test {
  TempDir dir{"reader"};
  ParsedFixture ref = parse_fixture();
  void SetUp() override {
    ThreadPool pool(2);
    convert_fixture(dir.path, 20, &pool);
  }
};

TEST_F(ReaderFixture, EvalStreamIsHeldOutTailAndFoldsIndices) {
  const DatasetSpec spec = fixture_spec(40);
  const ShardedDatasetReader reader(spec, dir.path.string());
  // 3 shards of 20/20/8: the last shard is the eval holdout.
  EXPECT_EQ(reader.shards().size(), 3u);
  EXPECT_EQ(reader.num_eval_shards(), 1u);
  EXPECT_EQ(reader.num_samples(), 40u);
  EXPECT_EQ(reader.num_eval_samples(), 8u);
  EXPECT_EQ(reader.num_samples() + reader.num_eval_samples(), ref.count);

  const std::size_t train = reader.num_samples();
  const std::size_t held_out = reader.num_eval_samples();
  const std::size_t batch_size = 4;
  for (std::size_t b = 0; b * batch_size < 2 * held_out; ++b) {
    const SampleBatch batch = reader.make_eval_batch(batch_size, b);
    for (std::size_t j = 0; j < batch_size; ++j) {
      // Eval ordinals map to the file-order tail, wrapping within it --
      // held-out metrics never touch the training samples [0, train).
      const std::size_t g = train + (b * batch_size + j) % held_out;
      EXPECT_EQ(batch.labels[j], ref.labels[g]);
      for (std::size_t f = 0; f < 13; ++f) {
        EXPECT_EQ(batch.dense(j, f), ref.dense[g * 13 + f]) << g << "," << f;
      }
      for (std::size_t t = 0; t < 26; ++t) {
        EXPECT_EQ(batch.indices[t][j], ref.cats[g * 26 + t] % 40u);
        EXPECT_LT(batch.indices[t][j], 40u);
      }
    }
  }
}

TEST(ShardedDatasetReader, SingleShardEvalFallsBackToTrainingSetInFileOrder) {
  // One shard has no tail to hold out: eval reads the training shard in
  // file order.
  const ParsedFixture ref = parse_fixture();
  ASSERT_EQ(ref.count, 48u);
  TempDir dir("single");
  ASSERT_EQ(convert_fixture(dir.path, 48).shards, 1u);
  const ShardedDatasetReader reader(fixture_spec(40), dir.path.string());
  EXPECT_EQ(reader.num_eval_shards(), 0u);
  EXPECT_EQ(reader.num_samples(), ref.count);
  EXPECT_EQ(reader.num_eval_samples(), reader.num_samples());
  const SampleBatch first = reader.make_eval_batch(16, 0);
  for (std::size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(first.labels[j], ref.labels[j]);
    for (std::size_t f = 0; f < 13; ++f) {
      EXPECT_EQ(first.dense(j, f), ref.dense[j * 13 + f]) << j << "," << f;
    }
    for (std::size_t t = 0; t < 26; ++t) {
      EXPECT_EQ(first.indices[t][j], ref.cats[j * 26 + t] % 40u);
    }
  }
}

TEST_F(ReaderFixture, TrainStreamShufflesShardsPerEpoch) {
  const ShardedDatasetReader reader(fixture_spec(), dir.path.string());
  const std::size_t batch = 8;
  const std::size_t batches_per_epoch = reader.num_samples() / batch;
  ASSERT_EQ(reader.num_samples() % batch, 0u);

  // Deterministic: a second reader over the same directory produces
  // identical batches.
  const ShardedDatasetReader twin(fixture_spec(), dir.path.string());
  for (std::size_t b = 0; b < 4 * batches_per_epoch; ++b) {
    const SampleBatch a = reader.make_batch(batch, b);
    const SampleBatch c = twin.make_batch(batch, b);
    EXPECT_EQ(a.labels, c.labels);
    EXPECT_EQ(a.indices, c.indices);
  }

  // Every epoch is a permutation of the same training multiset (the
  // first two shards), and some epoch order differs from file order
  // (shard-granularity shuffling).
  std::vector<float> train_sorted(ref.labels.begin(),
                                  ref.labels.begin() + reader.num_samples());
  std::sort(train_sorted.begin(), train_sorted.end());
  std::vector<float> epoch0_labels;
  bool some_epoch_differs = false;
  for (std::size_t e = 0; e < 4; ++e) {
    std::vector<float> labels;
    for (std::size_t b = 0; b < batches_per_epoch; ++b) {
      const SampleBatch sample =
          reader.make_batch(batch, e * batches_per_epoch + b);
      labels.insert(labels.end(), sample.labels.begin(), sample.labels.end());
    }
    std::vector<float> sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, train_sorted) << "epoch " << e;
    if (e == 0) {
      epoch0_labels = labels;
    } else if (labels != epoch0_labels) {
      some_epoch_differs = true;
    }
  }
  EXPECT_TRUE(some_epoch_differs);
}

TEST_F(ReaderFixture, SteadyStateFillIsZeroAllocation) {
  const ShardedDatasetReader reader(fixture_spec(), dir.path.string());
  SampleBatch batch;
  reader.fill_batch(16, 0, batch);  // warm-up: capacities grow here
  const std::uint64_t warm = reader.grow_events();
  EXPECT_GT(warm, 0u);
  for (std::size_t b = 1; b < 24; ++b) {  // spans several epochs
    reader.fill_batch(16, b, batch);
  }
  EXPECT_EQ(reader.grow_events(), warm) << "steady-state fill reallocated";
}

TEST_F(ReaderFixture, ConcurrentFillsAreRaceFreeAndIdentical) {
  const ShardedDatasetReader reader(fixture_spec(), dir.path.string());
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatches = 12;
  std::vector<std::vector<SampleBatch>> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t b = 0; b < kBatches; ++b) {
        results[w].push_back(reader.make_batch(16, b));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t w = 1; w < kThreads; ++w) {
    for (std::size_t b = 0; b < kBatches; ++b) {
      EXPECT_EQ(results[w][b].labels, results[0][b].labels);
      EXPECT_EQ(results[w][b].indices, results[0][b].indices);
    }
  }
}

TEST_F(ReaderFixture, SkipsEmptyShards) {
  // Drop an empty (but valid) shard into the directory.
  ShardContent empty;
  empty.num_dense = 13;
  empty.num_cat = 26;
  std::vector<std::byte> bytes;
  encode_shard(empty, bytes);
  std::ofstream os(dir.path / "shard_999999.dlshard", std::ios::binary);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  os.close();

  const ShardedDatasetReader reader(fixture_spec(), dir.path.string());
  EXPECT_EQ(reader.num_samples() + reader.num_eval_samples(), ref.count);
  EXPECT_EQ(reader.empty_shards_skipped(), 1u);
}

TEST_F(ReaderFixture, RejectsShapeMismatch) {
  DatasetSpec wrong = fixture_spec();
  wrong.tables.resize(7);
  EXPECT_THROW(ShardedDatasetReader(wrong, dir.path.string()), FormatError);
}

TEST_F(ReaderFixture, RejectsCorruptShardOnFirstTouch) {
  // Corrupt one payload byte of the first shard (header stays intact, so
  // open succeeds; the CRC check fires on first load).
  std::vector<fs::path> paths;
  for (const auto& e : fs::directory_iterator(dir.path)) paths.push_back(e.path());
  std::sort(paths.begin(), paths.end());
  std::vector<std::byte> bytes = read_all(paths[0]);
  bytes.back() ^= std::byte{0x01};
  std::ofstream(paths[0], std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));

  const ShardedDatasetReader reader(fixture_spec(), dir.path.string());
  EXPECT_THROW(
      {
        for (std::size_t b = 0; b < 3; ++b) (void)reader.make_batch(16, b);
      },
      FormatError);
}

// ----------------------------------------------------- model integration

TEST_F(ReaderFixture, TrainerRunsFromShardedReader) {
  const DatasetSpec spec = fixture_spec(40);
  const ShardedDatasetReader reader(spec, dir.path.string());

  TrainerConfig config;
  config.world = 2;
  config.global_batch = 16;
  config.iterations = 3;
  config.record_every = 1;
  config.seed = 9;
  HybridParallelTrainer trainer(config);
  const TrainingResult result = trainer.train(reader);
  ASSERT_FALSE(result.history.empty());
  for (const auto& rec : result.history) {
    EXPECT_TRUE(std::isfinite(rec.train_loss));
  }

  // And the single-process model accepts reader batches directly.
  DlrmModel model(spec, DlrmConfig{}, 7);
  const LossResult loss = model.train_step(reader.make_batch(16, 0));
  EXPECT_TRUE(std::isfinite(loss.loss));
}

}  // namespace
}  // namespace dlcomp
