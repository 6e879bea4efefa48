#pragma once

/// \file obs_server.hpp
/// The assembled observability plane: a StatusBoard that workloads
/// heartbeat into, and an ObservabilityServer exposing it over HTTP.
///
/// Endpoints (all GET/HEAD, loopback by default):
///   /metrics  Prometheus text exposition -- live registry families
///             (typed, with histogram buckets) plus any extra snapshot
///             provider (end-of-run results as untyped gauges).
///   /healthz  200 "ok" while the server runs: liveness is "the process
///             is up and its poll loop answers", nothing else.
///   /readyz   503 until the workload flips StatusBoard::set_ready(true),
///             200 after; flips back to 503 on set_ready(false)
///             (drain/shutdown). Scrapers use it to gate traffic.
///   /status   JSON progress report: state string, iteration / total,
///             items/s throughput, uptime, seconds since the last
///             heartbeat, and the recent warning/error ring from the
///             structured logger.
///
/// The server thread only ever reads atomics and takes the short status
/// mutex; a scrape never blocks training or serving.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/http_server.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace dlcomp {

/// Shared progress state: workloads write (cheap relaxed stores from the
/// hot loop's record points), the /readyz and /status handlers read.
class StatusBoard {
 public:
  void set_ready(bool ready) noexcept {
    ready_.store(ready, std::memory_order_release);
  }
  [[nodiscard]] bool ready() const noexcept {
    return ready_.load(std::memory_order_acquire);
  }

  void set_state(std::string state) {
    std::lock_guard lock(mutex_);
    state_ = std::move(state);
  }
  [[nodiscard]] std::string state() const {
    std::lock_guard lock(mutex_);
    return state_;
  }

  /// One call per record point: progress plus an implicit heartbeat.
  void heartbeat(std::uint64_t iteration, double items_per_s) noexcept;

  void set_total_iterations(std::uint64_t n) noexcept {
    total_iterations_.store(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t iteration() const noexcept {
    return iteration_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_iterations() const noexcept {
    return total_iterations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double items_per_s() const noexcept {
    return items_per_s_.load(std::memory_order_relaxed);
  }
  /// Seconds since the last heartbeat(); a large value on a live /status
  /// page means the workload is stuck, not slow. Negative when no
  /// heartbeat has ever been recorded.
  [[nodiscard]] double heartbeat_age_s() const noexcept;

 private:
  std::atomic<bool> ready_{false};
  std::atomic<std::uint64_t> iteration_{0};
  std::atomic<std::uint64_t> total_iterations_{0};
  std::atomic<double> items_per_s_{0.0};
  std::atomic<double> last_heartbeat_s_{-1.0};  ///< steady-clock seconds
  mutable std::mutex mutex_;
  std::string state_ = "starting";
};

struct ObservabilityConfig {
  HttpServerConfig http;
  /// Minimum level of log-ring entries surfaced in /status.
  LogLevel status_log_level = LogLevel::kWarn;
};

class ObservabilityServer {
 public:
  /// `registry` and `board` must outlive the server. `extra_snapshot`
  /// (optional) is called per /metrics scrape for untyped end-of-run
  /// style gauges appended after the registry families.
  ObservabilityServer(ObservabilityConfig config, MetricsRegistry& registry,
                      StatusBoard& board,
                      std::function<MetricsSnapshot()> extra_snapshot = {});

  void start() { http_.start(); }
  void stop() { http_.stop(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return http_.port(); }
  [[nodiscard]] HttpServer& http() noexcept { return http_; }

  /// The /status response body (exposed for tests and the CLI).
  [[nodiscard]] std::string status_json() const;

 private:
  ObservabilityConfig config_;
  MetricsRegistry& registry_;
  StatusBoard& board_;
  std::function<MetricsSnapshot()> extra_snapshot_;
  double start_s_ = 0.0;
  HttpServer http_;
};

}  // namespace dlcomp
