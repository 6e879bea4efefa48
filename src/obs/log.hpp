#pragma once

/// \file log.hpp
/// Structured leveled JSONL logger with per-site rate limiting and a
/// lock-free recent-events ring.
///
/// Every line the sink receives is one JSON object:
///   {"ts":1722950000.123,"level":"warn","component":"data",
///    "msg":"malformed line skipped","line":4821,"suppressed":37}
/// String and numeric fields ride as top-level keys after the fixed
/// quartet, so `jq`/Loki-style pipelines need no nested unwrapping;
/// `suppressed` appears only when the emitting site dropped messages
/// since its last emitted line.
///
/// Rate limiting is per call site: the DLCOMP_LOG_* macros plant a static
/// LogSite whose token window admits at most `Logger::kSiteBurst`
/// lines per second; excess calls only bump the site's
/// suppressed counter (two relaxed atomic ops -- a hot loop logging a
/// recurring warning costs nanoseconds, not I/O). kError lines are never
/// rate limited.
///
/// The recent-events ring keeps the last kRingCapacity entries (whatever
/// their level, rate-limited drops excluded) for the /status endpoint.
/// Writers claim a ticket with one fetch_add and publish the slot with a
/// seqlock whose seq derives from the ticket (2t+1 writing, 2t+2 stable),
/// so writers lapping each other onto one slot always present distinct
/// seq values and readers reliably detect torn entries; a lapped writer
/// drops its ring entry (the newer one is the more recent event anyway).
/// Readers retry torn slots, so no lock is ever held on the logging
/// path. Slots are fixed-size word arrays behind
/// relaxed atomics (the TSan-clean seqlock shape) -- component, message
/// and rendered fields are truncated to the slot budget; the sink line
/// is never truncated.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dlcomp {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };

[[nodiscard]] std::string_view log_level_name(LogLevel level) noexcept;

/// One "key": value attachment. Constructible from the things call sites
/// actually have -- numbers log as JSON numbers, the rest as strings.
struct LogField {
  LogField(std::string_view k, std::string_view v)
      : key(k), text(v), is_number(false) {}
  LogField(std::string_view k, const char* v)
      : key(k), text(v), is_number(false) {}
  LogField(std::string_view k, const std::string& v)
      : key(k), text(v), is_number(false) {}
  LogField(std::string_view k, double v) : key(k), number(v) {}
  LogField(std::string_view k, std::size_t v)
      : key(k), number(static_cast<double>(v)) {}
  LogField(std::string_view k, int v)
      : key(k), number(static_cast<double>(v)) {}

  std::string_view key;
  std::string_view text;
  double number = 0.0;
  bool is_number = true;
};

/// Static per-call-site state planted by the macros.
struct LogSite {
  std::atomic<std::uint64_t> window_start_ns{0};
  std::atomic<std::uint32_t> in_window{0};
  std::atomic<std::uint64_t> suppressed{0};
};

/// A recent-ring entry, already rendered (the ring stores copies; the
/// logging path allocates only while formatting, never while publishing).
struct LogEntry {
  double unix_ts = 0.0;
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string message;
  std::string fields_json;  ///< rendered ",\"k\":v,..." tail (may be empty)
};

class Logger {
 public:
  static constexpr std::size_t kRingCapacity = 64;
  /// Lines one call site may emit per one-second window.
  static constexpr std::uint32_t kSiteBurst = 10;

  static Logger& global();

  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void set_min_level(LogLevel level) noexcept {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel min_level() const noexcept {
    return static_cast<LogLevel>(
        min_level_.load(std::memory_order_relaxed));
  }

  /// Redirects JSONL output; nullptr silences the stream (the ring and
  /// counters still update -- tests and /status use this).
  void set_sink(std::FILE* sink) noexcept {
    sink_.store(sink, std::memory_order_relaxed);
  }

  /// Cheap front gate for the macros: level filter + site token window.
  /// Returns false (and counts a suppression) when the line must not be
  /// emitted. kError always passes the window.
  [[nodiscard]] bool admit(LogLevel level, LogSite& site) noexcept;

  /// Formats and emits one line, folding the site's accumulated
  /// suppressed count into the record.
  void log(LogLevel level, std::string_view component,
           std::string_view message, std::initializer_list<LogField> fields,
           LogSite* site = nullptr);

  /// Snapshot of the recent-events ring, oldest first. `min_level`
  /// filters (e.g. kWarn for the /status "recent errors" block).
  [[nodiscard]] std::vector<LogEntry> recent(
      LogLevel min_level = LogLevel::kDebug) const;

  [[nodiscard]] std::uint64_t lines_emitted() const noexcept {
    return lines_emitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t lines_suppressed() const noexcept {
    return lines_suppressed_.load(std::memory_order_relaxed);
  }

 private:
  /// POD slot payload (seqlock-copied word by word; strings truncate).
  struct PackedEntry {
    double unix_ts = 0.0;
    std::uint32_t level = 0;
    std::uint32_t pad = 0;
    char component[24] = {};
    char message[104] = {};
    char fields[120] = {};
  };
  static constexpr std::size_t kSlotWords = sizeof(PackedEntry) / 8;
  static_assert(sizeof(PackedEntry) % 8 == 0);

  struct RingSlot {
    std::atomic<std::uint64_t> seq{0};  ///< odd while being written
    std::atomic<std::uint64_t> words[kSlotWords] = {};
  };

  std::atomic<int> min_level_{static_cast<int>(LogLevel::kWarn)};
  std::atomic<std::FILE*> sink_{stderr};

  std::atomic<std::uint64_t> ring_head_{0};
  RingSlot ring_[kRingCapacity];

  std::atomic<std::uint64_t> lines_emitted_{0};
  std::atomic<std::uint64_t> lines_suppressed_{0};
  std::mutex io_mutex_;  ///< serializes whole lines onto the sink
};

}  // namespace dlcomp

/// Leveled logging with structured fields:
///   DLCOMP_LOG_WARN("data", "malformed line skipped", {"line", lineno});
/// Fields are optional. Each expansion is its own rate-limit site.
#define DLCOMP_LOG_IMPL(level, component, message, ...)                     \
  do {                                                                      \
    static ::dlcomp::LogSite dlcomp_log_site;                               \
    if (::dlcomp::Logger::global().admit(level, dlcomp_log_site)) {         \
      ::dlcomp::Logger::global().log(level, component, message,             \
                                     {__VA_ARGS__}, &dlcomp_log_site);      \
    }                                                                       \
  } while (false)

#define DLCOMP_LOG_DEBUG(component, message, ...)              \
  DLCOMP_LOG_IMPL(::dlcomp::LogLevel::kDebug, component,       \
                  message __VA_OPT__(, ) __VA_ARGS__)
#define DLCOMP_LOG_INFO(component, message, ...)               \
  DLCOMP_LOG_IMPL(::dlcomp::LogLevel::kInfo, component,        \
                  message __VA_OPT__(, ) __VA_ARGS__)
#define DLCOMP_LOG_WARN(component, message, ...)               \
  DLCOMP_LOG_IMPL(::dlcomp::LogLevel::kWarn, component,        \
                  message __VA_OPT__(, ) __VA_ARGS__)
#define DLCOMP_LOG_ERROR(component, message, ...)              \
  DLCOMP_LOG_IMPL(::dlcomp::LogLevel::kError, component,       \
                  message __VA_OPT__(, ) __VA_ARGS__)
