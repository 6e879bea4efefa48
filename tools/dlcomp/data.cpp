// `dlcomp data convert|inspect|stats`: Criteo TSV -> .dlshard ingestion.

#include <filesystem>

#include "cli.hpp"
#include "common/table_printer.hpp"
#include "common/timer.hpp"
#include "data/shard_converter.hpp"
#include "data/shard_format.hpp"
#include "data/shard_reader.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp::cli {
namespace {

constexpr FlagSpec kConvertFlags[] = {
    {"--samples-per-shard", "N", "65536", "samples per output shard"},
    {"--max-samples", "N", "0", "stop after this many samples (0: all)"},
    {"--threads", "N", "0", "converter threads (0: one per hardware thread)"},
    {"--dense", "N", "13", "dense features per line"},
    {"--cat", "N", "26", "categorical features per line"},
};

constexpr FlagSpec kStatsFlags[] = {
    {"--dataset", "kaggle|terabyte|small", "kaggle", "spec the shards are read as"},
    {"--batches", "N", "64", "batches to read for the throughput probe"},
    {"--batch", "N", "", "samples per batch (default: the dataset's batch)"},
};

int cmd_data_convert(const ArgParser& args) {
  ConvertOptions options;
  options.input_tsv = args.positional(0);
  options.output_dir = args.positional(1);
  options.samples_per_shard = args.uint("--samples-per-shard");
  options.max_samples = args.uint("--max-samples");
  options.num_dense = args.uint("--dense");
  options.num_cat = args.uint("--cat");

  ThreadPool pool(static_cast<unsigned>(args.uint("--threads")));
  options.pool = &pool;

  const ConvertReport report = convert_criteo_tsv(options);
  std::printf(
      "converted %zu samples into %zu shards (%zu malformed lines "
      "skipped)\n%" PRIu64 " TSV bytes -> %" PRIu64 " shard bytes in %.2f s "
      "(%.1f MB/s, %u threads)\n",
      report.samples, report.shards, report.malformed_lines, report.input_bytes,
      report.shard_bytes, report.seconds, report.convert_mb_per_s(), pool.thread_count());
  return report.samples > 0 ? 0 : 1;
}

int cmd_data_inspect(const ArgParser& args) {
  const auto bytes = read_file(args.positional(0));
  const ShardView view = decode_shard(bytes);
  std::printf("version:     %d\n", kShardVersion);
  std::printf("num dense:   %u\n", view.header.num_dense);
  std::printf("num tables:  %u\n", view.header.num_cat);
  std::printf("samples:     %u\n", view.header.sample_count);
  std::printf("sections:    %u\n", view.header.section_count);
  std::printf("file bytes:  %zu\n", bytes.size());
  std::printf("crc:         OK (all sections verified)\n");
  double positives = 0.0;
  for (const float label : view.labels) positives += label;
  if (view.sample_count() > 0) {
    std::printf("label rate:  %.4f\n",
                positives / static_cast<double>(view.sample_count()));
  }
  return 0;
}

int cmd_data_stats(const ArgParser& args) {
  const DatasetSpec spec = spec_by_name(args.str("--dataset"));
  const ShardedDatasetReader reader(spec, args.positional(0));

  TablePrinter table({"shard", "samples", "bytes", "first sample"});
  for (const auto& shard : reader.shards()) {
    table.add_row({std::filesystem::path(shard.path).filename().string(),
                   std::to_string(shard.samples), std::to_string(shard.file_bytes),
                   std::to_string(shard.first_sample)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("train: %" PRIu64 " samples | eval holdout: %" PRIu64 " samples in %zu "
              "shards | %zu shards total (%zu empty skipped), "
              "%zu tables x %zu dense\n",
              reader.num_samples(), reader.num_eval_samples(),
              reader.num_eval_shards(), reader.shards().size(),
              reader.empty_shards_skipped(), spec.num_tables(), spec.num_dense);

  // Read-throughput probe over the requested batch budget, through the
  // fill_batch path the trainer's make_batch runs.
  const std::size_t batch = args.uint("--batch", spec.default_batch);
  const std::size_t batches = args.uint("--batches");
  SampleBatch scratch;
  WallTimer timer;
  for (std::size_t b = 0; b < batches; ++b) reader.fill_batch(batch, b, scratch);
  const double seconds = timer.seconds();
  const std::uint64_t samples = static_cast<std::uint64_t>(batches) * batch;
  const double bytes_read =
      static_cast<double>(samples) *
      (static_cast<double>(spec.num_dense + 1) * sizeof(float) +
       static_cast<double>(spec.num_tables()) * sizeof(std::uint32_t));
  std::printf(
      "read %zu batches x %zu samples in %.3f s: %.1f MB/s, "
      "%" PRIu64 " grow events, epoch %" PRIu64 "\n",
      batches, batch, seconds, seconds > 0 ? bytes_read / seconds / 1e6 : 0.0,
      reader.grow_events(), samples / reader.num_samples());
  return 0;
}

}  // namespace

extern const Command kDataConvert{
    "data convert", "<in.tsv> <out-dir>", kConvertFlags, cmd_data_convert,
    "converts Criteo TSV into CRC-checked .dlshard files"};
extern const Command kDataInspect{
    "data inspect", "<shard.dlshard>", {}, cmd_data_inspect,
    "verifies one shard and prints its header"};
extern const Command kDataStats{
    "data stats", "<dir>", kStatsFlags, cmd_data_stats,
    "validates a shard directory and measures batch read throughput"};

}  // namespace dlcomp::cli
