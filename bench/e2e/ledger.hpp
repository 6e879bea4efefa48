#pragma once

/// \file ledger.hpp
/// The benchmark's arithmetic, kept apart from the workloads so the
/// self-test can pin it on fixed inputs:
///   - nearest-rank percentiles over doubles, the tail percentile a
///     sample count supports, and the spread of a metric across runs;
///   - the suite's tally of one workload's runs, where a run that left no
///     result counts as failing every operation it attempted;
///   - span self times: one thread's begin/end trace events folded into
///     per-name self and inclusive time over a sequence of root spans
///     (one root per unit of work), so layer times plus the root's own
///     unattributed self time add up to the root time exactly.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace e2e {

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample, by the
/// repo's shared rank rule (dlcomp::nearest_rank), so p50 of 10 samples
/// is the 5th smallest. NaN for an empty sample.
double percentile(std::vector<double> values, double q);

/// Highest percentile of {50, 90, 99} whose nearest rank leaves at least
/// 10 of `n` samples above it; 50 when none does. The ladder stops at
/// p99: on the shared 4-core host p99.9 of a 15 s window moved by half
/// its value from seed to seed, too far to gate a change on.
double tail_percentile(std::size_t n);

/// Spread of one metric across runs.
struct Spread {
  std::size_t n = 0;
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
};
Spread spread(std::span<const double> values);

/// One workload's runs as the suite collects them.
struct RunTally {
  /// Per run, the share of its operations that failed; 1 for a run that
  /// printed no result (it crashed or was killed at its deadline).
  std::vector<double> failed_shares;
  /// Metric name -> value of every run that printed a result.
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  std::size_t measured = 0;  ///< runs whose metrics are in `values`

  /// Mean failed share over every run; 1 before any run.
  [[nodiscard]] double failed_frac() const;
};

/// Folds one run into `tally` from its exit status and standard output,
/// whose last line is the run's JSON result. Returns true when the run
/// exited 0 with a result that says it is correct.
bool fold_run(RunTally& tally, bool exited_ok, const std::string& output);

/// Per-name time over the measured root spans of one thread.
struct SpanLedger {
  /// Self time by span name: duration minus the time its child spans
  /// cover. The root name's entry is the root's unattributed time.
  std::map<std::string, double> self_s;
  /// Inclusive time by span name.
  std::map<std::string, double> total_s;
  /// Duration of every measured root span, in order.
  std::vector<double> roots_s;
};

/// Folds one thread's kBegin/kEnd events (oldest first) into a ledger.
/// Spans outside a span named `root` are ignored, as are the first
/// `skip` roots (warm-up). Throws dlcomp::Error when an end does not
/// match the open span (e.g. a ring wrapped and lost begins).
SpanLedger build_ledger(std::span<const dlcomp::TraceEvent> events,
                        std::string_view root, std::size_t skip);

}  // namespace e2e
