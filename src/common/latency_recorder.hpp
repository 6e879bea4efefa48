#pragma once

/// \file latency_recorder.hpp
/// Per-sample latency capture with tail-percentile reporting. The serving
/// subsystem records one sample per query (queueing + service time); the
/// training benches can record per-iteration step times the same way.
///
/// A recorder is not thread-safe: writers on a thread pool each keep
/// their own recorder and the coordinator merge()s them afterwards, which
/// keeps the record() hot path allocation- and lock-free (amortized).

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace dlcomp {

/// Percentile summary of a latency sample, all in seconds.
struct LatencySummary {
  std::size_t count = 0;
  double mean_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double p999_s = 0.0;
};

class LatencyRecorder {
 public:
  /// Records one latency sample in seconds.
  void record(double seconds);

  /// Appends another recorder's samples (merge of worker-local recorders).
  void merge(const LatencyRecorder& other);

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] std::span<const float> samples() const noexcept {
    return samples_;
  }

  /// Computes mean/min/max and nearest-rank p50/p95/p99/p99.9 (sorts a
  /// copy). The rank rule is the shared `nearest_rank()` estimator, so
  /// these agree with HistogramMetric quantiles up to bucket resolution.
  [[nodiscard]] LatencySummary summary() const;

  /// Writes summary() under `name` with the keys snapshot_histogram()
  /// uses (<name>/count, mean, min, max, p50, p95, p99, p999), but with
  /// exact sample percentiles instead of bucket bounds — how end-of-run
  /// manifests record latencies.
  void snapshot_to(MetricsSnapshot& snap, const std::string& name) const;

  /// Bucket layout used for latency histograms: 1 us .. ~67 s,
  /// x2 exponential.
  [[nodiscard]] static HistogramBuckets default_buckets() {
    return HistogramBuckets::exponential(1e-6, 2.0, 26);
  }

 private:
  std::vector<float> samples_;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = 0.0;
};

/// Formats a LatencySummary as "p50=1.23ms p95=... p99=... p99.9=..." for
/// one-line reporting (CLI and bench output).
std::string format_latency(const LatencySummary& summary);

}  // namespace dlcomp
