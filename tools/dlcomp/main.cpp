// The dlcomp command-line tool. `dlcomp --help` lists the subcommands,
// `dlcomp <command> --help` shows one command's flags. Usage errors exit
// 2 with the command's usage, runtime errors exit 1.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli.hpp"
#include "compress/kernels.hpp"
#include "compress/registry.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace dlcomp::cli {

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw Error("cannot open: " + path);
  std::vector<std::byte> data(std::filesystem::file_size(path));
  if (!is.read(reinterpret_cast<char*>(data.data()),
               static_cast<std::streamsize>(data.size()))) {
    throw Error("read failed: " + path);
  }
  return data;
}

DatasetSpec spec_by_name(const std::string& which, std::size_t rows) {
  if (which == "kaggle") return DatasetSpec::criteo_kaggle_like(rows);
  if (which == "terabyte") return DatasetSpec::criteo_terabyte_like(rows);
  if (which == "small") return DatasetSpec::small_training_proxy(26, 16);
  throw Error("unknown dataset: " + which + " (expected kaggle|terabyte|small)");
}

std::string codec_flag(const ArgParser& args) {
  const std::string codec = args.str("--codec");
  return codec == "none" ? "" : std::string(get_compressor(codec).name());
}

void begin_run(const ArgParser& args, bool tracing) {
  for (const char* flag : {"--history-out", "--manifest-out", "--trace"}) {
    const auto dir = std::filesystem::path(args.str(flag)).parent_path();
    if (!dir.empty() && !std::filesystem::is_directory(dir)) {
      throw Error("output directory does not exist: " + dir.string() + " (" +
                  flag + " " + args.str(flag) + ")");
    }
  }
  if (tracing && args.has("--trace")) Tracer::instance().enable();
}

void finish_run(const ArgParser& args, const char* mode, MetricsSnapshot metrics) {
  // Process-global metrics (SIMD tier, codec block counters)
  // live in MetricsRegistry::global(), not in the run's own snapshot.
  const MetricsSnapshot global = MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : global.values) metrics.set(name, value);
  if (args.has("--trace")) {
    Tracer::instance().disable();
    Tracer::instance().export_chrome_trace(args.str("--trace"));
    std::printf("wrote %s (%llu events dropped)\n", args.str("--trace").c_str(),
                static_cast<unsigned long long>(Tracer::instance().dropped_events()));
  }
  if (!args.has("--manifest-out")) return;
  RunManifest manifest{.label = args.str("--label"), .mode = mode,
                       .codec = codec_flag(args), .error_bound = args.num("--eb"),
                       .seed = args.u64("--seed"), .created = utc_now_iso8601()};
  for (const FlagSpec& flag : args.flags()) {
    const std::string value = flag.value.empty()
                                  ? (args.has(flag.name) ? "true" : "false")
                                  : args.str(flag.name);
    if (!value.empty()) manifest.config[std::string(flag.name.substr(2))] = value;
  }
  manifest.config["mode"] = mode;
  manifest.config["simd_isa"] = simd::isa_name(kernels::dispatched_isa());
  manifest.metrics = std::move(metrics.values);
  manifest.save(args.str("--manifest-out"));
}

namespace {

const Command* const kCommands[] = {
    &kTrain,   &kServe,      &kCompress,    &kDecompress,  &kInspect,
    &kAnalyze, &kCodecs,     &kObsDiff,     &kCkptSave,    &kCkptInspect,
    &kCkptVerify, &kCkptDiff, &kDataConvert, &kDataInspect, &kDataStats};

std::string help(const Command& command) {
  std::string out = std::string("usage: dlcomp ") + command.name +
                    (*command.synopsis ? " " : "") + command.synopsis +
                    (command.flags.empty() ? "\n" : " [flags]\n") + command.about + "\n";
  for (const FlagSpec& flag : command.flags) {
    std::string line = "  " + std::string(flag.name) + " " + std::string(flag.value);
    line.resize(std::max<std::size_t>(line.size() + 1, 34), ' ');
    line += flag.help;
    if (!flag.fallback.empty()) line += " (default " + std::string(flag.fallback) + ")";
    out += line + "\n";
  }
  return out;
}

/// Positional arity from the synopsis: `<x>` words are required, `[x]`
/// words optional.
bool arity_ok(const Command& command, std::size_t count) {
  std::size_t required = 0;
  std::size_t optional = 0;
  std::istringstream words(command.synopsis);
  for (std::string word; words >> word;) ++(word[0] == '[' ? optional : required);
  return count >= required && count <= required + optional;
}

}  // namespace
}  // namespace dlcomp::cli

int main(int argc, char** argv) {
  using namespace dlcomp;
  using namespace dlcomp::cli;
  // Interactive tool: surface info-level structured logs on stderr (the
  // library default stays kWarn so tests and benches run quiet).
  Logger::global().set_min_level(LogLevel::kInfo);
  const std::string word = argc > 1 ? argv[1] : "";
  const std::string words = argc > 2 ? word + " " + argv[2] : "";
  const bool wants_help =
      std::find(argv + 1, argv + argc, std::string_view("--help")) != argv + argc;
  const Command* command = nullptr;
  for (const Command* c : kCommands) {
    if (c->name == word || c->name == words) command = c;
  }
  if (command == nullptr) {  // no, unknown or partial command: list them
    if (!wants_help && argc > 1) {
      std::fprintf(stderr, "error: unknown command: %s\n",
                   (words.empty() ? word : words).c_str());
    }
    std::FILE* out = wants_help ? stdout : stderr;
    for (const Command* c : kCommands) {
      std::fprintf(out, "  dlcomp %s%s%s\n", c->name, *c->synopsis ? " " : "", c->synopsis);
    }
    std::fprintf(out, "run `dlcomp <command> --help` for its flags\n");
    return wants_help ? 0 : 2;
  }
  if (wants_help) {
    std::fputs(help(*command).c_str(), stdout);
    return 0;
  }
  try {
    const ArgParser args(argc, argv, std::strchr(command->name, ' ') ? 3 : 2,
                         command->flags);
    if (!arity_ok(*command, args.positionals().size())) {
      throw UsageError("wrong number of arguments");
    }
    return command->run(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), help(*command).c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
