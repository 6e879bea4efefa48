// Checkpoint size and throughput bench (beyond the paper: the same
// per-table error-bounded codecs applied to at-rest model state).
// Measures, against a lossless raw baseline:
//   - checkpoint size, table compression ratio and the wall time of warm
//     save_full, save_delta and load calls for error-bounded codecs at
//     several bounds (median and p10/p90 over a few repeats, after an
//     untimed warm-up of each call), and of the first delta after each
//     full snapshot, which also decodes the writer's deferred shadow,
//   - delta vs full snapshot size over a training run (touched-row
//     encoding exploits the Zipf query skew: most rows never move
//     between saves).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/arg_parser.hpp"
#include "common/stats.hpp"
#include "common/table_printer.hpp"
#include "common/timer.hpp"
#include "dlrm/model.hpp"
#include "parallel/thread_pool.hpp"
#include "data/synthetic.hpp"

using namespace dlcomp;

namespace {

std::string bench_dir() {
  const auto dir = std::filesystem::temp_directory_path() / "dlcomp_bench_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

double mbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e6 : 0.0;
}

/// Wall seconds of each of `reps` calls of fn(rep).
template <typename Fn>
std::vector<float> time_reps(std::size_t reps, const Fn& fn) {
  std::vector<float> seconds;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    fn(rep);
    seconds.push_back(static_cast<float>(timer.seconds()));
  }
  return seconds;
}

/// `key` is the median; `key`_p10 and `key`_p90 the spread.
void set_spread(MetricsSnapshot& metrics, const std::string& key,
                const std::vector<float>& seconds) {
  metrics.set(key, percentile(seconds, 50));
  metrics.set(key + "_p10", percentile(seconds, 10));
  metrics.set(key + "_p90", percentile(seconds, 90));
}

/// "p50 (p10-p90)" in milliseconds.
std::string ms_spread(const std::vector<float>& seconds) {
  return TablePrinter::num(1e3 * percentile(seconds, 50), 2) + " (" +
         TablePrinter::num(1e3 * percentile(seconds, 10), 2) + "-" +
         TablePrinter::num(1e3 * percentile(seconds, 90), 2) + ")";
}

/// "hybrid" + eb 0.01 -> "hybrid_eb_0.01"; lossless -> "raw".
std::string cell_key(const std::string& codec, double eb) {
  if (codec.empty()) return "raw";
  return codec + "_eb_" + TablePrinter::num(eb, 3);
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv, 1, {"--metrics"});
  bench::banner("checkpoint size / throughput: lossless vs error-bounded",
                "extension (Check-N-Run-style compressed checkpointing)");

  const std::size_t tables = bench::scaled(16, 26);
  const std::size_t dim = bench::scaled(16, 32);
  const std::size_t train_steps = bench::scaled(20, 100);
  const DatasetSpec spec = DatasetSpec::small_training_proxy(tables, dim);
  const SyntheticClickDataset data(spec, 77);

  DlrmModel model(spec, {}, 77);
  for (std::size_t i = 0; i < train_steps; ++i) {
    (void)model.train_step(data.make_batch(spec.default_batch, i));
  }
  // The delta timings alternate between two saved states, so every
  // timed delta re-encodes the rows a few training steps move.
  const std::size_t save_every = bench::scaled(5, 20);
  DlrmModel next_model(spec, {}, 77);
  for (std::size_t i = 0; i < train_steps + save_every; ++i) {
    (void)next_model.train_step(data.make_batch(spec.default_batch, i));
  }
  std::size_t raw_table_bytes = 0;
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    raw_table_bytes += model.table(t).weights().size() * sizeof(float);
  }
  std::printf("model: %zu tables, dim %zu, %.1f MB of embedding state\n\n",
              tables, dim, static_cast<double>(raw_table_bytes) / 1e6);

  const std::string dir = bench_dir();
  ThreadPool pool;

  struct Config {
    const char* label;
    std::string codec;
    double eb;
  };
  std::vector<Config> configs = {{"raw (lossless)", "", 0.0},
                                 {"hybrid", "hybrid", 0.01},
                                 {"hybrid", "hybrid", 0.05},
                                 {"cusz-like", "cusz-like", 0.01},
                                 {"cusz-like", "cusz-like", 0.05},
                                 {"zfp-like", "zfp-like", 0.01}};

  const std::size_t reps = bench::scaled(7, 9);
  std::printf("warm timings over %zu calls each: median (p10-p90)\n", reps);
  TablePrinter table({"codec", "eb", "file MB", "table CR", "save MB/s",
                      "save ms", "delta ms", "1st delta ms", "load ms",
                      "max err"});
  MetricsSnapshot all_metrics;
  for (const auto& config : configs) {
    CheckpointOptions options;
    options.codec = config.codec;
    options.global_eb = config.eb;
    options.pool = &pool;
    CheckpointWriter writer(options);
    const std::string path = dir + "/bench.dlck";
    const std::string delta_path = dir + "/bench_delta.dlck";
    const ModelState state = make_model_state(model, train_steps, 77);
    const ModelState next =
        make_model_state(next_model, train_steps + save_every, 77);

    // Untimed warm-up of each call: pool threads, engine scratch and
    // first-touch pages are in place before any timed call.
    writer.save_full(path, state);
    LoadedCheckpoint loaded = CheckpointReader(&pool).load(path);
    const std::vector<float> save_s = time_reps(
        reps, [&](std::size_t) { writer.save_full(path, state); });
    const std::vector<float> load_s = time_reps(reps, [&](std::size_t) {
      loaded = CheckpointReader(&pool).load(path);
    });
    // The first delta after a full snapshot also decodes the writer's
    // shadow; it is the warm-up of the steady deltas timed next.
    writer.save_delta(delta_path, next);
    const std::vector<float> delta_s =
        time_reps(reps, [&](std::size_t rep) {
          writer.save_delta(delta_path, rep % 2 == 0 ? state : next);
        });
    // The first delta after each full snapshot, timed on its own: every
    // delta of a run that alternates full and delta saves is one.
    std::vector<float> first_delta_s;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      writer.save_full(path, state);  // untimed
      first_delta_s.push_back(time_reps(1, [&](std::size_t) {
        writer.save_delta(delta_path, next);
      })[0]);
    }

    double max_err = 0.0;
    for (std::size_t t = 0; t < loaded.tables.size(); ++t) {
      const auto live = model.table(t).weights().flat();
      const auto& got = loaded.tables[t].values;
      for (std::size_t i = 0; i < got.size(); ++i) {
        max_err = std::max(max_err,
                           static_cast<double>(std::abs(live[i] - got[i])));
      }
    }
    const ContainerInfo info = inspect_checkpoint(path);
    const std::string key = "ckpt/" + cell_key(config.codec, config.eb);
    all_metrics.set(key + "/file_bytes",
                    static_cast<double>(info.file_bytes));
    all_metrics.set(key + "/table_cr",
                    static_cast<double>(info.table_raw_bytes) /
                        static_cast<double>(info.table_stored_bytes));
    set_spread(all_metrics, key + "/save_s", save_s);
    set_spread(all_metrics, key + "/delta_s", delta_s);
    set_spread(all_metrics, key + "/first_delta_s", first_delta_s);
    set_spread(all_metrics, key + "/load_s", load_s);
    all_metrics.set(key + "/max_err", max_err);
    table.add_row(
        {config.label, config.codec.empty() ? "-" : TablePrinter::num(config.eb, 3),
         TablePrinter::num(static_cast<double>(info.file_bytes) / 1e6, 2),
         TablePrinter::num(static_cast<double>(info.table_raw_bytes) /
                               static_cast<double>(info.table_stored_bytes),
                           2),
         TablePrinter::num(mbps(raw_table_bytes, percentile(save_s, 50)), 1),
         ms_spread(save_s), ms_spread(delta_s), ms_spread(first_delta_s),
         ms_spread(load_s),
         TablePrinter::num(max_err, 6)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // ---- Delta vs full snapshots across a training run.
  std::printf("delta vs full snapshots (save every %zu steps, hybrid eb 0.01):\n",
              save_every);
  const std::size_t legs = bench::scaled(4, 8);

  CheckpointOptions options;
  options.codec = "hybrid";
  options.global_eb = 0.01;
  options.pool = &pool;
  CheckpointWriter writer(options);
  DlrmModel delta_model(spec, {}, 99);

  TablePrinter delta_table(
      {"save", "kind", "file MB", "touched rows", "vs full"});
  std::size_t step = 0;
  std::size_t full_bytes = 0;
  for (std::size_t leg = 0; leg <= legs; ++leg) {
    if (leg > 0) {
      for (std::size_t i = 0; i < save_every; ++i) {
        (void)delta_model.train_step(data.make_batch(spec.default_batch, step++));
      }
    }
    const std::string path = dir + "/leg" + std::to_string(leg) + ".dlck";
    if (leg == 0) {
      writer.save_full(path, make_model_state(delta_model, step, 99));
    } else {
      writer.save_delta(path, make_model_state(delta_model, step, 99));
    }
    const ContainerInfo info = inspect_checkpoint(path);
    if (leg == 0) full_bytes = info.file_bytes;
    const std::string key = "ckpt/delta/leg" + std::to_string(leg);
    all_metrics.set(key + "/file_bytes",
                    static_cast<double>(info.file_bytes));
    if (leg > 0) {
      all_metrics.set(key + "/touched_rows",
                      static_cast<double>(info.delta_touched_rows));
    }
    delta_table.add_row(
        {std::to_string(leg), leg == 0 ? "full" : "delta",
         TablePrinter::num(static_cast<double>(info.file_bytes) / 1e6, 3),
         leg == 0 ? "-" : std::to_string(info.delta_touched_rows),
         TablePrinter::num(
             100.0 * static_cast<double>(info.file_bytes) /
                 static_cast<double>(full_bytes),
             1) + "%"});
  }
  std::printf("%s\n", delta_table.to_string().c_str());

  bench::dump_metrics(args.str("--metrics"), all_metrics);
  std::filesystem::remove_all(dir);
  return 0;
}
