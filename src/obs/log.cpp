#include "obs/log.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/json.hpp"

namespace dlcomp {

std::string_view log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "?";
}

namespace {

/// The per-site rate-limit window (see Logger::kSiteBurst).
constexpr std::uint64_t kSiteWindowNs = 1'000'000'000;

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double unix_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void append_log_number(std::string& out, double v) {
  char buf[32];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  out += buf;
}

}  // namespace

Logger& Logger::global() {
  static Logger* logger = new Logger();  // never destroyed (exit-safe)
  return *logger;
}

bool Logger::admit(LogLevel level, LogSite& site) noexcept {
  if (static_cast<int>(level) <
      min_level_.load(std::memory_order_relaxed)) {
    return false;  // filtered lines are not "suppressed" -- not counted
  }
  if (level == LogLevel::kError) return true;

  const std::uint64_t now = steady_ns();
  std::uint64_t start = site.window_start_ns.load(std::memory_order_relaxed);
  if (now - start >= kSiteWindowNs) {
    // Window rolled over; one racing winner resets the token count. The
    // losers observe the fresh window and take tokens from it.
    if (site.window_start_ns.compare_exchange_strong(
            start, now, std::memory_order_relaxed)) {
      site.in_window.store(0, std::memory_order_relaxed);
    }
  }
  const std::uint32_t taken =
      site.in_window.fetch_add(1, std::memory_order_relaxed);
  if (taken < kSiteBurst) return true;
  site.suppressed.fetch_add(1, std::memory_order_relaxed);
  lines_suppressed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view message,
                 std::initializer_list<LogField> fields, LogSite* site) {
  LogEntry entry;
  entry.unix_ts = unix_seconds();
  entry.level = level;
  entry.component.assign(component);
  entry.message.assign(message);

  std::uint64_t suppressed = 0;
  if (site != nullptr) {
    suppressed = site->suppressed.exchange(0, std::memory_order_relaxed);
  }

  // Render the structured tail once; both the sink line and the ring
  // entry reuse it.
  std::string& tail = entry.fields_json;
  for (const LogField& f : fields) {
    tail.push_back(',');
    tail += json_quote(f.key);
    tail.push_back(':');
    if (f.is_number) {
      append_log_number(tail, f.number);
    } else {
      tail += json_quote(f.text);
    }
  }
  if (suppressed > 0) {
    tail += ",\"suppressed\":";
    append_log_number(tail, static_cast<double>(suppressed));
  }

  // Publish into the ring: claim a slot, mark it odd, store the packed
  // words, mark even. Long strings truncate to the slot budget.
  PackedEntry packed;
  packed.unix_ts = entry.unix_ts;
  packed.level = static_cast<std::uint32_t>(level);
  const auto copy_truncated = [](char* dst, std::size_t cap,
                                 std::string_view src) {
    const std::size_t n = std::min(cap - 1, src.size());
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
  };
  copy_truncated(packed.component, sizeof(packed.component), component);
  copy_truncated(packed.message, sizeof(packed.message), message);
  copy_truncated(packed.fields, sizeof(packed.fields), tail);

  std::uint64_t packed_words[kSlotWords];
  std::memcpy(packed_words, &packed, sizeof(packed));

  const std::uint64_t ticket =
      ring_head_.fetch_add(1, std::memory_order_relaxed);
  RingSlot& slot = ring_[ticket % kRingCapacity];
  // Boehm's seqlock write protocol (odd marker, fence, data, publish),
  // with the seq derived from the ring ticket (2*ticket+1 while writing,
  // 2*ticket+2 when stable) so writers that lap each other onto the same
  // slot produce distinct seq values a reader's before==after check can
  // catch. The CAS claims the slot: if a newer ticket already owns or
  // published it, our entry is the stale one and is dropped (the sink
  // line above the ring is unaffected); if an older writer is mid-write
  // (odd seq below ours), wait it out briefly -- it only has a few word
  // stores left -- and give up rather than spin unboundedly.
  const std::uint64_t writing = 2 * ticket + 1;
  std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  bool claimed = false;
  for (int spin = 0; spin < 4096; ++spin) {
    if (seq >= writing) break;  // lapped by a newer writer; drop ours
    if ((seq & 1ull) != 0) {    // older writer mid-write
      seq = slot.seq.load(std::memory_order_relaxed);
      continue;
    }
    if (slot.seq.compare_exchange_weak(seq, writing,
                                       std::memory_order_relaxed)) {
      claimed = true;
      break;
    }
  }
  if (claimed) {
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t w = 0; w < kSlotWords; ++w) {
      slot.words[w].store(packed_words[w], std::memory_order_relaxed);
    }
    slot.seq.store(writing + 1, std::memory_order_release);  // even: stable
  }

  lines_emitted_.fetch_add(1, std::memory_order_relaxed);

  std::FILE* sink = sink_.load(std::memory_order_relaxed);
  if (sink == nullptr) return;

  std::string line;
  line.reserve(96 + tail.size());
  line += "{\"ts\":";
  char ts_buf[32];
  std::snprintf(ts_buf, sizeof(ts_buf), "%.3f", entry.unix_ts);
  line += ts_buf;
  line += ",\"level\":";
  line += json_quote(log_level_name(level));
  line += ",\"component\":";
  line += json_quote(component);
  line += ",\"msg\":";
  line += json_quote(message);
  line += tail;
  line += "}\n";

  std::lock_guard lock(io_mutex_);
  std::fwrite(line.data(), 1, line.size(), sink);
  std::fflush(sink);
}

std::vector<LogEntry> Logger::recent(LogLevel min_level) const {
  std::vector<LogEntry> out;
  const std::uint64_t head = ring_head_.load(std::memory_order_acquire);
  const std::uint64_t count = std::min<std::uint64_t>(head, kRingCapacity);
  out.reserve(count);
  for (std::uint64_t i = head - count; i < head; ++i) {
    const RingSlot& slot = ring_[i % kRingCapacity];
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
      if ((before & 1ull) != 0) continue;  // mid-write; retry
      std::uint64_t words[kSlotWords];
      for (std::size_t w = 0; w < kSlotWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t after = slot.seq.load(std::memory_order_relaxed);
      if (before != after) continue;  // torn; retry

      PackedEntry packed;
      std::memcpy(&packed, words, sizeof(packed));
      if (static_cast<int>(packed.level) < static_cast<int>(min_level)) break;
      LogEntry entry;
      entry.unix_ts = packed.unix_ts;
      entry.level = static_cast<LogLevel>(packed.level);
      entry.component.assign(packed.component);
      entry.message.assign(packed.message);
      entry.fields_json.assign(packed.fields);
      out.push_back(std::move(entry));
      break;
    }
  }
  return out;
}

}  // namespace dlcomp
