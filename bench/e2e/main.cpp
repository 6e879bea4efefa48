// bench_e2e: the repository benchmark. Measured training iterations and
// open-loop served queries, end to end (tracing off) and per layer
// (traced pass). See README.md for the workloads and every metric.
//
//   bench_e2e --workload W --seed N --seconds S --trace 0|1
//       one run of one workload; the last stdout line is the result:
//       {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
//   bench_e2e [--runs R] [--quick] [--traced] [--out FILE]
//       every workload R times, interleaved, run r with seed r, each run
//       in a fresh process; prints each metric's median and p10/p90 with
//       its unit and writes flat JSON (<workload>/<metric> -> median) to
//       FILE.

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/arg_parser.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "ledger.hpp"
#include "procs.hpp"
#include "workloads.hpp"

namespace {

using dlcomp::JsonValue;

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The workloads and metrics BENCHMARK.json declares: the one list of
/// names and units, which every run reports in full.
struct Catalogue {
  double run_seconds = 0.0;  ///< the measured window of one run
  std::vector<std::string> workloads;
  std::vector<MetricDef> end_to_end;  ///< reported with --trace 0
  std::vector<MetricDef> per_layer;   ///< reported with --trace 1
};

const JsonValue& field(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.find(key);
  if (v == nullptr) throw dlcomp::Error("no '" + std::string(key) + "' member");
  return *v;
}

Catalogue load_catalogue(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw dlcomp::Error("cannot read " + path + " (run from the repository root)");
  std::stringstream text;
  text << file.rdbuf();
  const JsonValue doc = dlcomp::json_parse(text.str());
  Catalogue c;
  c.run_seconds = field(doc, "run_seconds").as_number();
  for (const JsonValue& w : field(doc, "workloads").items()) {
    c.workloads.push_back(field(w, "name").as_string());
  }
  const auto metrics = [&](std::string_view key, std::vector<MetricDef>& out) {
    for (const JsonValue& m : field(doc, key).items()) {
      out.push_back({field(m, "name").as_string(), field(m, "unit").as_string()});
    }
  };
  metrics("end_to_end", c.end_to_end);
  metrics("per_layer", c.per_layer);
  return c;
}

constexpr double kRunBudgetS = 170.0;

/// One run of one workload; prints the result line and returns the exit
/// code (0 only when every output check passed).
int run_one(const dlcomp::ArgParser& args, const Catalogue& catalogue) {
  e2e::RunOptions options;
  options.workload = args.str("--workload");
  options.seed = args.u64("--seed", 1);
  options.seconds = args.num("--seconds", catalogue.run_seconds);
  options.trace = args.uint("--trace", 0) != 0;
  options.deadline_ns = e2e::now_ns() + static_cast<std::uint64_t>(kRunBudgetS * 1e9);
  if (!(options.seconds > 0.0)) throw dlcomp::Error("--seconds must be positive");
  // A run that somehow outlives its budget dies here; forked ranks die
  // with it (PR_SET_PDEATHSIG).
  ::alarm(static_cast<unsigned>(kRunBudgetS) + 5);

  if (!e2e::is_train_workload(options.workload) &&
      !e2e::is_serve_workload(options.workload)) {
    throw dlcomp::Error("unknown workload: " + options.workload);
  }
  e2e::RunOutput out;
  try {
    out = e2e::is_train_workload(options.workload)
              ? e2e::run_train_workload(options)
              : e2e::run_serve_workload(options);
  } catch (const std::exception& e) {
    // A run that breaks part-way still reports, as one failed operation.
    out = {};
    out.attempted = out.failed = 1;
    out.errors.push_back(e.what());
  }

  bool correct = out.errors.empty() && out.failed == 0 && out.attempted > 0;
  JsonValue metrics = JsonValue::object();
  for (const MetricDef& def :
       options.trace ? catalogue.per_layer : catalogue.end_to_end) {
    // Per-layer metrics of a layer this workload never calls read 0.
    double value = options.trace ? 0.0 : std::nan("");
    if (const auto it = out.metrics.find(def.name); it != out.metrics.end()) {
      value = it->second;
    }
    if (!std::isfinite(value)) {
      correct = false;
      out.errors.push_back("metric " + def.name + " was not measured");
      value = 0.0;
    }
    JsonValue entry = JsonValue::object();
    entry.set("value", JsonValue(value));
    entry.set("unit", JsonValue(def.unit));
    metrics.set(def.name, std::move(entry));
    std::fprintf(stderr, "%-16s %-28s %14.6g %s\n", options.workload.c_str(),
                 def.name.c_str(), value, def.unit.c_str());
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "%s: check failed: %s\n", options.workload.c_str(),
                 e.c_str());
  }
  JsonValue result = JsonValue::object();
  result.set("correct", JsonValue(correct));
  result.set("attempted", JsonValue(static_cast<double>(out.attempted)));
  result.set("failed", JsonValue(static_cast<double>(out.failed)));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}

/// Every workload `runs` times, interleaved, each run a fresh process
/// of this binary. Prints the spread of every metric and writes the
/// flat results file.
int run_suite(const dlcomp::ArgParser& args, const Catalogue& catalogue) {
  const std::size_t runs = args.uint("--runs", 1);
  const double seconds = args.has("--quick") ? 5.0 : catalogue.run_seconds;
  const bool traced = args.has("--traced");

  std::map<std::string, e2e::RunTally> tallies;
  bool all_ok = true;
  for (std::size_t run = 0; run < runs; ++run) {
    for (const std::string& w : catalogue.workloads) {
      const std::uint64_t seed = run + 1;
      const std::vector<std::string> argv_s = {
          "bench_e2e", "--workload", w, "--seed", std::to_string(seed),
          "--seconds", std::to_string(seconds), "--trace", traced ? "1" : "0"};
      const auto start = std::chrono::steady_clock::now();
      e2e::ChildGroup group;
      group.spawn([&](int fd) {
        ::dup2(fd, STDOUT_FILENO);
        std::vector<char*> argv;
        for (const std::string& a : argv_s) argv.push_back(const_cast<char*>(a.c_str()));
        argv.push_back(nullptr);
        ::execv("/proc/self/exe", argv.data());
        return 127;
      });
      const e2e::ChildResult child = group.wait(kRunBudgetS + 20.0).at(0);
      const double took = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      const bool ok = e2e::fold_run(tallies[w], child.ok, child.output);
      all_ok = all_ok && ok;
      std::fprintf(stderr, "[run %zu/%zu] %-16s seed %llu: %s (%.1f s)\n", run + 1,
                   runs, w.c_str(), static_cast<unsigned long long>(seed),
                   ok ? "ok" : "FAILED", took);
    }
  }

  JsonValue flat = JsonValue::object();
  JsonValue per_run = JsonValue::object();
  std::printf("%-16s %-28s %-9s %14s %14s %14s %3s\n", "workload", "metric",
              "unit", "median", "p10", "p90", "n");
  for (const std::string& w : catalogue.workloads) {
    const e2e::RunTally& tally = tallies[w];
    // A run that printed no result fails every operation of the run and
    // leaves its metrics out of the medians; these two keys show it.
    flat.set(w + "/failed_frac", JsonValue(tally.failed_frac()));
    flat.set(w + "/measured_runs", JsonValue(static_cast<double>(tally.measured)));
    std::printf("%-16s %-28s %-9s %14.6g %14s %14s %3zu\n", w.c_str(), "failed_frac",
                "fraction", tally.failed_frac(), "", "", runs);
    for (const auto& [name, v] : tally.values) {
      const e2e::Spread s = e2e::spread(v);
      std::printf("%-16s %-28s %-9s %14.6g %14.6g %14.6g %3zu\n", w.c_str(),
                  name.c_str(), tally.units.at(name).c_str(), s.median, s.p10,
                  s.p90, s.n);
      flat.set(w + "/" + name, JsonValue(s.median));
      JsonValue list = JsonValue::array();
      for (const double x : v) list.push_back(JsonValue(x));
      per_run.set(w + "/" + name, std::move(list));
    }
  }
  flat.set("runs", std::move(per_run));
  if (args.has("--out")) {
    std::ofstream file(args.str("--out"));
    file << flat.dump(2) << "\n";
    if (!file) throw dlcomp::Error("cannot write " + args.str("--out"));
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dlcomp::ArgParser args(
        argc, argv, 1,
        {"--workload", "--seed", "--seconds", "--trace", "--runs", "--out"},
        {"--quick", "--traced"});
    const bool single = args.has("--workload");
    for (const char* flag : {"--seed", "--seconds", "--trace"}) {
      if (!single && args.has(flag)) {
        throw dlcomp::Error(std::string(flag) + " needs --workload");
      }
    }
    for (const char* flag : {"--runs", "--out", "--quick", "--traced"}) {
      if (single && args.has(flag)) {
        throw dlcomp::Error(std::string(flag) + " does not go with --workload");
      }
    }
    const Catalogue catalogue = load_catalogue("BENCHMARK.json");
    return single ? run_one(args, catalogue) : run_suite(args, catalogue);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: error: %s\n", e.what());
    return 2;
  }
}
