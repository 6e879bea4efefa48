#include "obs/obs_server.hpp"

#include <chrono>

#include "common/json.hpp"
#include "obs/prometheus.hpp"

namespace dlcomp {

namespace {

double steady_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void StatusBoard::heartbeat(std::uint64_t iteration,
                            double items_per_s) noexcept {
  iteration_.store(iteration, std::memory_order_relaxed);
  items_per_s_.store(items_per_s, std::memory_order_relaxed);
  last_heartbeat_s_.store(steady_seconds(), std::memory_order_release);
}

double StatusBoard::heartbeat_age_s() const noexcept {
  const double last = last_heartbeat_s_.load(std::memory_order_acquire);
  if (last < 0.0) return -1.0;
  return steady_seconds() - last;
}

ObservabilityServer::ObservabilityServer(
    ObservabilityConfig config, MetricsRegistry& registry, StatusBoard& board,
    std::function<MetricsSnapshot()> extra_snapshot)
    : config_(std::move(config)),
      registry_(registry),
      board_(board),
      extra_snapshot_(std::move(extra_snapshot)),
      start_s_(steady_seconds()),
      http_(config_.http) {
  http_.add_route("/metrics", [this](const HttpRequest&) {
    std::string body = render_prometheus(registry_);
    if (extra_snapshot_) {
      render_prometheus_snapshot(extra_snapshot_(), body);
    }
    HttpResponse r = HttpResponse::text(200, std::move(body));
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return r;
  });
  http_.add_route("/healthz", [](const HttpRequest&) {
    return HttpResponse::text(200, "ok\n");
  });
  http_.add_route("/readyz", [this](const HttpRequest&) {
    return board_.ready() ? HttpResponse::text(200, "ready\n")
                          : HttpResponse::text(503, "not ready\n");
  });
  http_.add_route("/status", [this](const HttpRequest&) {
    return HttpResponse::json(200, status_json());
  });
}

std::string ObservabilityServer::status_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("state", JsonValue(board_.state()));
  doc.set("ready", JsonValue(board_.ready()));
  doc.set("iteration",
          JsonValue(static_cast<double>(board_.iteration())));
  doc.set("total_iterations",
          JsonValue(static_cast<double>(board_.total_iterations())));
  doc.set("items_per_s", JsonValue(board_.items_per_s()));
  doc.set("heartbeat_age_s", JsonValue(board_.heartbeat_age_s()));
  doc.set("uptime_s", JsonValue(steady_seconds() - start_s_));

  const Logger& logger = Logger::global();
  doc.set("log_lines_emitted",
          JsonValue(static_cast<double>(logger.lines_emitted())));
  doc.set("log_lines_suppressed",
          JsonValue(static_cast<double>(logger.lines_suppressed())));

  JsonValue events = JsonValue::array();
  for (const LogEntry& entry : logger.recent(config_.status_log_level)) {
    JsonValue e = JsonValue::object();
    e.set("ts", JsonValue(entry.unix_ts));
    e.set("level", JsonValue(std::string(log_level_name(entry.level))));
    e.set("component", JsonValue(entry.component));
    e.set("msg", JsonValue(entry.message));
    events.push_back(std::move(e));
  }
  doc.set("recent_events", std::move(events));
  return doc.dump();
}

}  // namespace dlcomp
