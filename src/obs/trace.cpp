#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace dlcomp {

namespace {

struct TlsRing {
  Tracer* owner = nullptr;  // opaque tag: which tracer/generation bound it
  void* ring = nullptr;
  std::uint64_t generation = 0;
};

thread_local TlsRing tls_ring;
thread_local int tls_rank = -1;

std::atomic<std::uint64_t> g_async_id{0};

[[nodiscard]] std::uint64_t wall_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] TraceEvent wall_event(TraceEvent::Kind kind,
                                    const char* name) noexcept {
  TraceEvent ev;
  ev.kind = kind;
  ev.rank = static_cast<std::int16_t>(tls_rank);
  ev.name = name;
  ev.wall_ns = wall_now_ns();
  return ev;
}

}  // namespace

void trace_begin(const char* name) {
  Tracer::instance().record(wall_event(TraceEvent::Kind::kBegin, name));
}

void trace_end(const char* name) {
  Tracer::instance().record(wall_event(TraceEvent::Kind::kEnd, name));
}

void trace_instant(const char* name) {
  Tracer::instance().record(wall_event(TraceEvent::Kind::kInstant, name));
}

void trace_counter(const char* name, double value) {
  TraceEvent ev = wall_event(TraceEvent::Kind::kCounter, name);
  ev.a = value;
  Tracer::instance().record(ev);
}

void trace_sim_slice(int rank, std::string_view phase, double begin_s,
                     double dur_s) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kSimSlice;
  ev.rank = static_cast<std::int16_t>(rank);
  ev.name = Tracer::instance().intern(phase);
  ev.a = begin_s;
  ev.b = dur_s;
  Tracer::instance().record(ev);
}

void trace_sim_async(int rank, const char* name, double begin_s,
                     double end_s) {
  const auto id = static_cast<double>(
      g_async_id.fetch_add(1, std::memory_order_relaxed));
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kAsyncBegin;
  ev.rank = static_cast<std::int16_t>(rank);
  ev.name = name;
  ev.a = begin_s;
  ev.b = id;
  Tracer& tracer = Tracer::instance();
  tracer.record(ev);
  ev.kind = TraceEvent::Kind::kAsyncEnd;
  ev.a = end_s;
  tracer.record(ev);
}

void trace_bind_thread_rank(int rank) noexcept { tls_rank = rank; }

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // never destroyed: rings must
                                         // outlive detached TLS caches
  return *tracer;
}

void Tracer::enable(std::size_t ring_capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = std::bit_ceil(std::max<std::size_t>(ring_capacity, 2));
  grow_events_.store(0, std::memory_order_relaxed);
  // Bump the generation so every thread re-registers; old rings stay
  // owned (retired) so stale TLS pointers never dangle.
  generation_.fetch_add(1, std::memory_order_release);
  g_trace_enabled.store(true, std::memory_order_release);
}

void Tracer::disable() {
  g_trace_enabled.store(false, std::memory_order_release);
}

Tracer::Ring* Tracer::register_thread() {
  std::lock_guard lock(mutex_);
  auto ring = std::make_unique<Ring>(
      capacity_, next_thread_index_++,
      generation_.load(std::memory_order_relaxed));
  Ring* raw = ring.get();
  rings_.push_back(std::move(ring));
  grow_events_.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

void Tracer::record(const TraceEvent& ev) {
  TlsRing& tls = tls_ring;
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (tls.owner != this || tls.generation != gen) {
    tls.ring = register_thread();
    tls.owner = this;
    tls.generation = gen;
  }
  auto& ring = *static_cast<Ring*>(tls.ring);
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  ring.events[head & ring.mask] = ev;
  ring.head.store(head + 1, std::memory_order_release);
}

const char* Tracer::intern(std::string_view name) {
  {
    std::shared_lock lock(intern_mutex_);
    const auto it = interned_.find(name);
    if (it != interned_.end()) return it->c_str();
  }
  std::unique_lock lock(intern_mutex_);
  return interned_.emplace(name).first->c_str();
}

std::vector<Tracer::ThreadTrace> Tracer::collect() const {
  std::lock_guard lock(mutex_);
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  std::vector<ThreadTrace> out;
  for (const auto& ring : rings_) {
    if (ring->generation != gen) continue;
    ThreadTrace trace;
    trace.thread_index = ring->thread_index;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t cap = ring->mask + 1;
    const std::uint64_t n = std::min(head, cap);
    trace.dropped = head - n;
    trace.events.reserve(n);
    for (std::uint64_t i = head - n; i < head; ++i) {
      trace.events.push_back(ring->events[i & ring->mask]);
    }
    out.push_back(std::move(trace));
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadTrace& lhs, const ThreadTrace& rhs) {
              return lhs.thread_index < rhs.thread_index;
            });
  return out;
}

std::uint64_t Tracer::dropped_events() const {
  std::uint64_t total = 0;
  for (const ThreadTrace& t : collect()) total += t.dropped;
  return total;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::vector<ThreadTrace> traces = collect();
  out << std::setprecision(15);

  // Normalize wall timestamps so the trace starts near t=0.
  std::uint64_t wall_t0 = UINT64_MAX;
  for (const ThreadTrace& t : traces) {
    for (const TraceEvent& ev : t.events) {
      if (ev.wall_ns != 0) wall_t0 = std::min(wall_t0, ev.wall_ns);
    }
  }
  if (wall_t0 == UINT64_MAX) wall_t0 = 0;

  constexpr int kWallPid = 0;
  constexpr int kSimPid = 1;

  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const auto& writer) {
    if (!first) out << ",\n";
    first = false;
    writer();
  };

  const auto meta_name = [&](const char* what, int pid, int tid,
                             std::string_view value, bool thread_meta) {
    emit([&] {
      out << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid;
      if (thread_meta) out << ",\"tid\":" << tid;
      out << ",\"args\":{\"name\":" << json_quote(value) << "}}";
    });
  };

  meta_name("process_name", kWallPid, 0, "wall clock", false);
  meta_name("process_name", kSimPid, 0, "sim clock", false);

  // Name wall tracks after the rank bound to the thread (if any) and sim
  // tracks after the rank they model.
  std::map<int, int> wall_thread_rank;   // thread_index -> rank or -1
  std::map<int, bool> sim_ranks;
  for (const ThreadTrace& t : traces) {
    int rank = -1;
    for (const TraceEvent& ev : t.events) {
      switch (ev.kind) {
        case TraceEvent::Kind::kSimSlice:
        case TraceEvent::Kind::kAsyncBegin:
        case TraceEvent::Kind::kAsyncEnd:
          sim_ranks[ev.rank] = true;
          break;
        default:
          if (ev.rank >= 0) rank = ev.rank;
      }
    }
    wall_thread_rank[static_cast<int>(t.thread_index)] = rank;
  }
  for (const auto& [tid, rank] : wall_thread_rank) {
    std::string label = rank >= 0 ? "rank " + std::to_string(rank)
                                  : "thread " + std::to_string(tid);
    meta_name("thread_name", kWallPid, tid, label, true);
  }
  for (const auto& [rank, present] : sim_ranks) {
    (void)present;
    meta_name("thread_name", kSimPid, rank,
              "rank " + std::to_string(rank), true);
  }

  const auto ts_us = [&](std::uint64_t wall_ns) {
    return static_cast<double>(wall_ns - wall_t0) / 1000.0;
  };

  for (const ThreadTrace& t : traces) {
    const int tid = static_cast<int>(t.thread_index);
    for (const TraceEvent& ev : t.events) {
      const auto name_field = [&] {
        out << "{\"name\":" << json_quote(ev.name != nullptr ? ev.name : "?");
      };
      switch (ev.kind) {
        case TraceEvent::Kind::kBegin:
        case TraceEvent::Kind::kEnd:
          emit([&] {
            name_field();
            out << ",\"ph\":\""
                << (ev.kind == TraceEvent::Kind::kBegin ? 'B' : 'E')
                << "\",\"pid\":" << kWallPid << ",\"tid\":" << tid
                << ",\"ts\":" << ts_us(ev.wall_ns) << "}";
          });
          break;
        case TraceEvent::Kind::kInstant:
          emit([&] {
            name_field();
            out << ",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << kWallPid
                << ",\"tid\":" << tid << ",\"ts\":" << ts_us(ev.wall_ns)
                << "}";
          });
          break;
        case TraceEvent::Kind::kCounter:
          emit([&] {
            name_field();
            out << ",\"ph\":\"C\",\"pid\":" << kWallPid << ",\"tid\":" << tid
                << ",\"ts\":" << ts_us(ev.wall_ns)
                << ",\"args\":{\"value\":" << ev.a << "}}";
          });
          break;
        case TraceEvent::Kind::kSimSlice:
          emit([&] {
            name_field();
            out << ",\"ph\":\"X\",\"pid\":" << kSimPid
                << ",\"tid\":" << ev.rank << ",\"ts\":" << ev.a * 1e6
                << ",\"dur\":" << ev.b * 1e6 << "}";
          });
          break;
        case TraceEvent::Kind::kAsyncBegin:
        case TraceEvent::Kind::kAsyncEnd:
          emit([&] {
            name_field();
            out << ",\"cat\":\"hidden\",\"ph\":\""
                << (ev.kind == TraceEvent::Kind::kAsyncBegin ? 'b' : 'e')
                << "\",\"id\":" << static_cast<std::uint64_t>(ev.b)
                << ",\"pid\":" << kSimPid << ",\"tid\":" << ev.rank
                << ",\"ts\":" << ev.a * 1e6 << "}";
          });
          break;
      }
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void Tracer::export_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  DLCOMP_CHECK_MSG(out.good(), "cannot open trace output: " << path);
  write_chrome_trace(out);
  out.flush();
  DLCOMP_CHECK_MSG(out.good(), "failed writing trace output: " << path);
}

}  // namespace dlcomp
