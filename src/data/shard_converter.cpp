#include "data/shard_converter.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "common/timer.hpp"
#include "data/shard_format.hpp"

namespace dlcomp {

std::string shard_filename(std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%06zu.dlshard", index);
  return name;
}

namespace {

/// Shared result accumulators; workers must not throw (ThreadPool
/// contract), so the first failure is captured and rethrown by the
/// driver after wait_idle().
struct ConvertSink {
  std::atomic<std::size_t> samples{0};
  std::atomic<std::size_t> malformed{0};
  std::atomic<std::size_t> shards{0};
  std::atomic<std::uint64_t> shard_bytes{0};
  std::mutex error_mutex;
  std::string first_error;

  void record_error(const std::string& message) {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error.empty()) first_error = message;
  }
};

/// Parses one group of raw lines into a shard and writes it. Runs on the
/// pool; deterministic per (group content, group index). Never throws:
/// any failure is recorded in the sink.
void convert_group(const CriteoTsvParser& parser,
                   const std::filesystem::path& out_dir, std::size_t index,
                   const std::vector<std::string>& lines, ConvertSink& sink) try {
  ShardContent content;
  content.num_dense = static_cast<std::uint16_t>(parser.num_dense());
  content.num_cat = static_cast<std::uint16_t>(parser.num_cat());
  content.labels.reserve(lines.size());
  content.dense.reserve(lines.size() * parser.num_dense());
  content.categorical.reserve(lines.size() * parser.num_cat());

  // Parse sample-major into a scratch row, then scatter the categorical
  // ids table-major once the group's sample count is known.
  std::vector<float> dense_row(parser.num_dense());
  std::vector<std::uint32_t> cat_row(parser.num_cat());
  std::vector<std::uint32_t> cats_sample_major;
  cats_sample_major.reserve(lines.size() * parser.num_cat());
  std::size_t malformed = 0;
  for (const std::string& line : lines) {
    float label = 0.0f;
    if (!parser.parse_line(line, label, dense_row, cat_row)) {
      ++malformed;
      continue;
    }
    content.labels.push_back(label);
    content.dense.insert(content.dense.end(), dense_row.begin(),
                         dense_row.end());
    cats_sample_major.insert(cats_sample_major.end(), cat_row.begin(),
                             cat_row.end());
  }
  sink.malformed.fetch_add(malformed, std::memory_order_relaxed);
  if (malformed > 0) {
    DLCOMP_LOG_WARN("data", "malformed input lines skipped",
                    {"count", malformed});
  }
  const std::size_t n = content.labels.size();
  if (n == 0) return;  // group was all malformed: no shard written

  content.categorical.resize(n * parser.num_cat());
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < parser.num_cat(); ++t) {
      content.categorical[t * n + s] = cats_sample_major[s * parser.num_cat() + t];
    }
  }

  std::vector<std::byte> bytes;
  encode_shard(content, bytes);

  const std::filesystem::path path = out_dir / shard_filename(index);
  write_file(path.string(), bytes);  // throws Error; recorded below
  sink.samples.fetch_add(n, std::memory_order_relaxed);
  sink.shards.fetch_add(1, std::memory_order_relaxed);
  sink.shard_bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
} catch (const std::exception& e) {
  sink.record_error(e.what());
} catch (...) {
  sink.record_error("shard " + std::to_string(index) + ": unknown error");
}

}  // namespace

ConvertReport convert_criteo_tsv(const ConvertOptions& options) {
  DLCOMP_CHECK(options.samples_per_shard > 0);
  if (options.num_dense > UINT16_MAX || options.num_cat > UINT16_MAX) {
    throw Error("feature widths " + std::to_string(options.num_dense) + " dense, " +
                std::to_string(options.num_cat) + " categorical exceed the shard "
                "header's limit of 65535 each");
  }
  std::ifstream is(options.input_tsv);
  if (!is.good()) throw Error("cannot open TSV input: " + options.input_tsv);
  std::filesystem::create_directories(options.output_dir);
  const std::filesystem::path out_dir(options.output_dir);

  const CriteoTsvParser parser(options.num_dense, options.num_cat);
  ConvertSink sink;
  WallTimer timer;

  // Backpressure: the reader outruns the parse/encode/write workers, so
  // without a bound the pool queue would accumulate line groups toward
  // the input file size (a Terabyte day file is ~45 GB). Cap in-flight
  // groups at a small multiple of the worker count.
  const std::size_t max_in_flight =
      options.pool != nullptr ? 2 * options.pool->thread_count() + 2 : 1;
  std::mutex flight_mutex;
  std::condition_variable flight_cv;
  std::size_t in_flight = 0;

  std::uint64_t input_bytes = 0;
  std::size_t lines_read = 0;
  std::size_t group_index = 0;
  std::vector<std::string> group;
  group.reserve(options.samples_per_shard);

  const auto dispatch = [&](std::vector<std::string>&& lines) {
    const std::size_t index = group_index++;
    if (options.pool != nullptr) {
      {
        std::unique_lock<std::mutex> lock(flight_mutex);
        flight_cv.wait(lock, [&] { return in_flight < max_in_flight; });
        ++in_flight;
      }
      options.pool->submit([&parser, &out_dir, index,
                            lines = std::move(lines), &sink, &flight_mutex,
                            &flight_cv, &in_flight] {
        convert_group(parser, out_dir, index, lines, sink);
        {
          const std::lock_guard<std::mutex> lock(flight_mutex);
          --in_flight;
        }
        flight_cv.notify_one();
      });
    } else {
      convert_group(parser, out_dir, index, lines, sink);
    }
  };

  std::string line;
  while (std::getline(is, line)) {
    input_bytes += line.size() + 1;
    group.push_back(std::move(line));
    ++lines_read;
    if (group.size() == options.samples_per_shard) {
      dispatch(std::move(group));
      group.clear();
      group.reserve(options.samples_per_shard);
    }
    if (options.max_samples > 0 && lines_read >= options.max_samples) break;
  }
  if (!group.empty()) dispatch(std::move(group));
  if (options.pool != nullptr) options.pool->wait_idle();

  if (!sink.first_error.empty()) throw Error(sink.first_error);

  ConvertReport report;
  report.samples = sink.samples.load();
  report.malformed_lines = sink.malformed.load();
  MetricsRegistry::global()
      .counter("data/malformed_lines_skipped")
      .add(report.malformed_lines);
  report.shards = sink.shards.load();
  report.input_bytes = input_bytes;
  report.shard_bytes = sink.shard_bytes.load();
  report.seconds = timer.seconds();
  return report;
}

}  // namespace dlcomp
