#pragma once

/// \file manifest.hpp
/// Run manifests and cross-run regression diffing.
///
/// A manifest (`<prefix>.run.json`) is the durable record of one traced
/// or benchmarked run: label, workload mode, codec choices, seed, the
/// full flag configuration, and the final numeric metric snapshot. Two
/// manifests -- or, via the loaders, any two numeric JSON reports or
/// Chrome trace files -- diff into a per-key report with tolerance
/// bands and a machine-readable verdict, which is what the
/// `dlcomp obs diff` subcommand and the CI perf gate run.
///
/// Key classification during a diff:
///   exact  -- substring "crc" or "grow": bit-for-bit reproducibility
///             counters; any difference is a regression.
///   timing -- keys that look like durations/latencies ("_s", "_us",
///             "seconds", "/p50"...): candidate > reference *
///             (1 + rel_tol) is a regression (faster is never flagged).
///   value  -- everything else: relative difference beyond rel_tol is
///             reported as a change (info), not a regression, unless
///             --strict-values promotes it.
/// Keys matching an ignore substring are skipped entirely (machine-
/// dependent throughputs in CI).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dlcomp {

struct RunManifest {
  std::string label;
  std::string mode;        ///< "trace", "serve", "bench", ...
  std::string codec;
  double error_bound = 0.0;
  std::uint64_t seed = 0;
  std::string created;     ///< ISO-8601 UTC, informational only
  std::map<std::string, std::string> config;  ///< flag name -> value
  std::map<std::string, double> metrics;

  /// The manifest document; `indent` 0 is one compact line (the
  /// BENCH_history.jsonl record), save() writes it with indent 2.
  [[nodiscard]] std::string to_json(int indent = 0) const;
  void save(const std::string& path) const;
};

/// Current time as ISO-8601 UTC ("2026-01-31T12:00:00Z"), the format of
/// RunManifest::created.
[[nodiscard]] std::string utc_now_iso8601();

/// Loads `path` as comparable key/value metrics, accepting three shapes:
///  - a run manifest (detected by its "dlcomp_manifest" marker): the
///    metrics map, plus "manifest" metadata in `out_manifest`;
///  - a Chrome trace file (detected by "traceEvents"): complete "X"
///    events aggregate per name into "trace/<name>_s" total seconds and
///    "trace/<name>_n" counts;
///  - any other JSON document: every numeric leaf flattened to
///    "a/b/c" -> value.
/// Throws dlcomp::Error when the file is unreadable or not JSON.
std::map<std::string, double> load_comparable_metrics(
    const std::string& path, RunManifest* out_manifest = nullptr);

enum class DiffStatus {
  kMatch,       ///< within tolerance (or bit-identical for exact keys)
  kImproved,    ///< timing key got faster beyond the tolerance band
  kChanged,     ///< value key moved beyond tolerance (informational)
  kRegression,  ///< exact mismatch, or timing key slower than the band
  kOnlyLeft,    ///< key present only in the reference
  kOnlyRight,   ///< key present only in the candidate
};

struct DiffEntry {
  std::string key;
  DiffStatus status = DiffStatus::kMatch;
  double reference = 0.0;
  double candidate = 0.0;
  double rel_delta = 0.0;  ///< (candidate - reference) / |reference|
};

struct DiffOptions {
  double rel_tol = 0.25;  ///< tolerance band for timing/value keys
  /// Substrings; keys containing any are excluded from the diff.
  std::vector<std::string> ignore;
  /// Promote out-of-band value-key changes to regressions.
  bool strict_values = false;
  /// Flag keys that exist on one side only (default: informational).
  bool strict_keys = false;
};

struct DiffReport {
  std::vector<DiffEntry> entries;  ///< sorted by key; kMatch included
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  std::size_t changes = 0;
  std::size_t matches = 0;

  [[nodiscard]] bool ok() const noexcept { return regressions == 0; }
  [[nodiscard]] const char* verdict() const noexcept {
    return ok() ? "ok" : "regression";
  }
  /// Machine-readable report (the `dlcomp obs diff --json` output).
  [[nodiscard]] std::string to_json() const;
  /// Human table: non-match entries, one per line.
  [[nodiscard]] std::string to_text() const;
};

/// True when the diff rules treat `key` as exact-match (crc / grow).
[[nodiscard]] bool diff_key_is_exact(const std::string& key);
/// True when the diff rules treat `key` as a timing key.
[[nodiscard]] bool diff_key_is_timing(const std::string& key);

[[nodiscard]] DiffReport diff_metrics(
    const std::map<std::string, double>& reference,
    const std::map<std::string, double>& candidate,
    const DiffOptions& options = {});

}  // namespace dlcomp
