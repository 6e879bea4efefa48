#pragma once

/// \file metrics.hpp
/// Pull-style metrics: named counters, gauges and fixed-bucket histograms
/// owned by a registry, flattened on demand into a sorted key/value
/// snapshot. The registry absorbs the accounting that used to live in
/// scattered ad-hoc members (A2AStats byte totals, workspace grow events,
/// LatencyRecorder percentiles, dataset-pipeline CRC/stall counters):
/// components either update registry instruments directly or publish
/// their private counters into a snapshot at the end of a run.
///
/// Thread-safety: instrument updates (Counter::add, Gauge::set,
/// HistogramMetric::observe) are lock-free atomics and safe from any
/// thread. Instrument *lookup* takes a registry mutex — hot paths should
/// resolve instruments once and keep the reference (instruments live as
/// long as the registry and are never invalidated by later lookups).
///
/// The nearest-rank quantile rule — including the epsilon guard that
/// keeps `ceil` from over-shooting on exact bucket boundaries (PR 1) —
/// lives here in `nearest_rank()`; `stats::percentile_sorted` and
/// `HistogramMetric::quantile` both route through it so the repo has one
/// percentile definition.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_hash.hpp"

namespace dlcomp {

/// 1-based nearest-rank index for percentile q in [0, 100] over `count`
/// sorted samples: ceil(q/100 * count), clamped to [1, count], with a
/// 1e-9 epsilon so q landing exactly on a rank boundary (e.g. p50 of 10
/// samples) selects that rank instead of the next one. Returns 0 only
/// when count == 0.
[[nodiscard]] std::size_t nearest_rank(std::size_t count, double q) noexcept;

/// Monotonic event count. Relaxed atomics: totals are read at quiescent
/// points (snapshots), not used for synchronization.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed bucket layout for HistogramMetric: ascending finite upper
/// bounds; values above the last bound land in an implicit overflow
/// bucket. Layouts are fixed at registration so observe() never
/// allocates.
struct HistogramBuckets {
  std::vector<double> upper_bounds;

  /// `count` buckets with bounds first, first*growth, first*growth^2, ...
  static HistogramBuckets exponential(double first, double growth,
                                      std::size_t count);
  /// `count` equal-width buckets spanning [lo, hi].
  static HistogramBuckets linear(double lo, double hi, std::size_t count);
};

/// Lock-free fixed-bucket histogram. observe() is a binary search over
/// the (immutable) bounds plus three relaxed atomic updates; quantiles
/// are estimated from cumulative bucket counts with the shared
/// nearest-rank rule and clamped to the observed min/max so exact-sample
/// distributions that fit one bucket report exact values.
class HistogramMetric {
 public:
  explicit HistogramMetric(HistogramBuckets buckets);

  void observe(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;

  /// Nearest-rank quantile estimate for q in [0, 100]: the upper bound of
  /// the bucket holding the q-th ranked sample, clamped to [min, max]
  /// observed. 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts (bounds_.size() + 1 entries, last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Flattened, sorted key -> value view of a registry (histograms expand
/// to <name>/count, /mean, /min, /max, /p50, /p95, /p99, /p999).
/// Components may also `set()` extra keys directly — SimClock ledgers and
/// per-table codec totals are published this way.
struct MetricsSnapshot {
  std::map<std::string, double> values;

  void set(std::string name, double value) {
    values.insert_or_assign(std::move(name), value);
  }
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] double value(std::string_view name,
                             double fallback = 0.0) const;
  /// One "<name> <value>" line per key, sorted (the bench `--metrics`
  /// text dump format).
  [[nodiscard]] std::string to_text() const;
};

/// Named instrument owner. Instruments are created on first lookup and
/// live until the registry is destroyed; references stay valid across
/// later lookups. A process-wide registry (`global()`) collects
/// cross-cutting counters (dataset pipeline); run-scoped registries are
/// plain members/locals snapshotted into results.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `buckets` applies on first registration; later lookups of the same
  /// name return the existing histogram unchanged.
  HistogramMetric& histogram(std::string_view name,
                             const HistogramBuckets& buckets);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Enumerates every instrument under the registry lock, sorted by name
  /// within each kind. Unlike snapshot(), this hands callers the live
  /// instruments — the Prometheus exposition needs histogram bucket
  /// counts, which the flat snapshot discards. Callbacks must not touch
  /// the registry (the lock is held).
  void visit(
      const std::function<void(const std::string&, const Counter&)>&
          on_counter,
      const std::function<void(const std::string&, const Gauge&)>& on_gauge,
      const std::function<void(const std::string&, const HistogramMetric&)>&
          on_histogram) const;

 private:
  template <typename T>
  using Map = std::unordered_map<std::string, std::unique_ptr<T>,
                                 TransparentStringHash, std::equal_to<>>;

  mutable std::mutex mutex_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<HistogramMetric> histograms_;
};

/// Expands one histogram into snapshot keys under `name` (the same
/// flattening MetricsRegistry::snapshot uses).
void snapshot_histogram(MetricsSnapshot& snap, const std::string& name,
                        const HistogramMetric& hist);

}  // namespace dlcomp
