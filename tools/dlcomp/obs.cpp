// `dlcomp obs diff`: compare two runs' numeric metrics.

#include <sstream>

#include "cli.hpp"
#include "obs/manifest.hpp"

namespace dlcomp::cli {
namespace {

constexpr FlagSpec kObsDiffFlags[] = {
    {"--rel-tol", "X", "0.25", "tolerance band for timing and value keys"},
    {"--ignore", "SUBSTR[,SUBSTR...]", "", "skip keys containing any of these"},
    {"--json", "", "", "print the machine-readable verdict"},
    {"--strict-values", "", "", "value keys outside the band are regressions"},
    {"--strict-keys", "", "", "keys on one side only are regressions"},
};

int cmd_obs_diff(const ArgParser& args) {
  DiffOptions options;
  options.rel_tol = args.num("--rel-tol");
  options.strict_values = args.has("--strict-values");
  options.strict_keys = args.has("--strict-keys");
  std::istringstream ignore(args.str("--ignore"));
  for (std::string part; std::getline(ignore, part, ',');) {
    if (!part.empty()) options.ignore.push_back(part);
  }

  RunManifest manifests[2];
  const auto reference = load_comparable_metrics(args.positional(0), &manifests[0]);
  const auto candidate = load_comparable_metrics(args.positional(1), &manifests[1]);
  const DiffReport report = diff_metrics(reference, candidate, options);

  if (args.has("--json")) {
    std::printf("%s\n", report.to_json().c_str());
    return report.ok() ? 0 : 1;
  }
  if (!manifests[0].label.empty() || !manifests[1].label.empty()) {
    const auto label = [&](std::size_t i) {  // a manifest's label, else its path
      return (manifests[i].label.empty() ? args.positional(i) : manifests[i].label).c_str();
    };
    std::printf("reference: %s  candidate: %s\n", label(0), label(1));
  }
  std::printf("%s", report.to_text().c_str());
  return report.ok() ? 0 : 1;
}

}  // namespace

extern const Command kObsDiff{
    "obs diff", "<reference> <candidate>", kObsDiffFlags, cmd_obs_diff,
    "diffs run manifests, Chrome traces or numeric JSON; exits 1 on a\n"
    "regression: a crc/grow key differs, or a timing key is slower than\n"
    "reference * (1 + rel-tol)"};

}  // namespace dlcomp::cli
