#pragma once

/// \file trace.hpp
/// Low-overhead span tracer with a Chrome trace-event JSON exporter.
///
/// Model: each recording thread owns a lock-free single-writer ring
/// buffer of fixed-size TraceEvent records (power-of-two capacity,
/// overwrite-oldest). Recording after a thread's first event is
/// allocation-free: one enabled-flag branch, a thread-local pointer
/// check, a slot store and a release publish of the head. Ring creation
/// is the only allocation and is counted in `buffer_grow_events()` so
/// tests can assert zero steady-state growth, mirroring the PR 3
/// workspace discipline.
///
/// Two timelines are recorded side by side:
///  - wall events (kBegin/kEnd/kInstant/kCounter) timestamped with the
///    steady clock on the recording thread;
///  - sim events (kSimSlice, kAsyncBegin/kAsyncEnd) timestamped in
///    SimClock seconds, emitted by the clock itself (`advance`/`sync_to`)
///    and by PendingCollective::wait for hidden comm, so exported slice
///    sums equal the ledger sums exactly.
/// The exporter maps them to two Chrome trace "processes": pid 0 = wall
/// clock (tid = recording thread), pid 1 = sim clock (tid = rank), with
/// hidden comm as async ("b"/"e") slices under the rank track. The JSON
/// loads in Perfetto / chrome://tracing.
///
/// Concurrency contract: record-side calls are safe from any thread
/// while the tracer is enabled. `enable`/`disable`/`collect`/export must
/// run while no instrumented code is executing (tests and the CLI
/// enable before spawning workers and export after joining them).
/// Re-enabling retires — but never frees — the previous generation's
/// rings, so a straggler thread holding a stale ring pointer writes into
/// retired (unexported) memory instead of freed memory.
///
/// Span names must have static storage duration (string literals or
/// interned strings); events store the pointer, not a copy. Compile out
/// every macro with -DDLCOMP_TRACE_DISABLED.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/string_hash.hpp"

namespace dlcomp {

/// Global on/off switch; the only cost instrumentation pays when
/// tracing is off is one relaxed load and branch.
inline std::atomic<bool> g_trace_enabled{false};

[[nodiscard]] inline bool trace_enabled() noexcept {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kBegin,       ///< wall span open (ph "B")
    kEnd,         ///< wall span close (ph "E")
    kInstant,     ///< wall instant (ph "i")
    kCounter,     ///< wall counter sample (ph "C"), value in `a`
    kSimSlice,    ///< sim complete slice (ph "X"): begin `a`, duration `b`
    kAsyncBegin,  ///< sim async open (ph "b"): ts `a`, id `b`
    kAsyncEnd,    ///< sim async close (ph "e"): ts `a`, id `b`
  };

  Kind kind = Kind::kInstant;
  std::int16_t rank = -1;      ///< rank binding; -1 = unbound worker
  const char* name = nullptr;  ///< static-storage or interned string
  std::uint64_t wall_ns = 0;   ///< steady-clock ns (wall events)
  double a = 0.0;
  double b = 0.0;
};

// Out-of-line record helpers: call only when trace_enabled(). They tag
// wall events with the current thread's bound rank.
void trace_begin(const char* name);
void trace_end(const char* name);
void trace_instant(const char* name);
void trace_counter(const char* name, double value);

/// Sim-timeline complete slice [begin_s, begin_s + dur_s] on `rank`'s
/// track. `phase` is interned (copied once per distinct name).
void trace_sim_slice(int rank, std::string_view phase, double begin_s,
                     double dur_s);

/// Sim-timeline async slice [begin_s, end_s] on `rank`'s track — hidden
/// comm rendered above the exposed phase slices. `name` must be stable
/// storage (interned phase names qualify).
void trace_sim_async(int rank, const char* name, double begin_s,
                     double end_s);

/// Binds/unbinds the calling thread's rank: wall events it records are
/// grouped under "rank N" in the exported trace. Cluster::run binds each
/// worker for the duration of the rank function.
void trace_bind_thread_rank(int rank) noexcept;

class Tracer {
 public:
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

  static Tracer& instance();

  /// Starts a new trace generation: resets drop/grow counters and
  /// retires any previous rings. `ring_capacity` is rounded up to a
  /// power of two; each recording thread allocates one ring lazily.
  void enable(std::size_t ring_capacity = kDefaultRingCapacity);
  void disable();

  /// Appends `ev` to the calling thread's ring (registering the thread
  /// on first use). Callers gate on trace_enabled().
  void record(const TraceEvent& ev);

  /// Stable pointer for a dynamic name; repeated calls with equal
  /// contents return the same pointer.
  const char* intern(std::string_view name);

  struct ThreadTrace {
    unsigned thread_index = 0;
    std::uint64_t dropped = 0;         ///< events overwritten by wrap
    std::vector<TraceEvent> events;    ///< oldest first
  };

  /// Snapshot of every current-generation ring (call while quiescent).
  [[nodiscard]] std::vector<ThreadTrace> collect() const;

  /// Rings allocated in the current generation (== threads that
  /// recorded); steady-state recording must not move this.
  [[nodiscard]] std::uint64_t buffer_grow_events() const noexcept {
    return grow_events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped_events() const;
  [[nodiscard]] std::size_t ring_capacity() const noexcept {
    return capacity_;
  }

  /// Chrome trace-event JSON (object form, `traceEvents` array).
  void write_chrome_trace(std::ostream& out) const;
  /// Writes the JSON to `path`; throws dlcomp::Error on I/O failure.
  void export_chrome_trace(const std::string& path) const;

 private:
  Tracer() = default;

  struct Ring {
    explicit Ring(std::size_t capacity, unsigned index, std::uint64_t gen)
        : events(capacity), mask(capacity - 1), thread_index(index),
          generation(gen) {}
    std::vector<TraceEvent> events;
    std::uint64_t mask;
    std::atomic<std::uint64_t> head{0};
    unsigned thread_index;
    std::uint64_t generation;
  };

  Ring* register_thread();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;  ///< all generations
  std::size_t capacity_ = kDefaultRingCapacity;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> grow_events_{0};
  unsigned next_thread_index_ = 0;

  mutable std::shared_mutex intern_mutex_;
  std::unordered_set<std::string, TransparentStringHash, std::equal_to<>>
      interned_;
};

/// RAII wall span; records nothing when tracing is disabled at
/// construction (and then nothing at destruction, even if tracing was
/// enabled in between — spans never emit unmatched ends).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (trace_enabled()) {
      name_ = name;
      trace_begin(name);
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) trace_end(name_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
};

}  // namespace dlcomp

#if defined(DLCOMP_TRACE_DISABLED)

#define DLCOMP_TRACE_SPAN(name) ((void)0)
#define DLCOMP_TRACE_INSTANT(name) ((void)0)
#define DLCOMP_TRACE_COUNTER(name, value) ((void)0)

#else

#define DLCOMP_TRACE_CONCAT2(a, b) a##b
#define DLCOMP_TRACE_CONCAT(a, b) DLCOMP_TRACE_CONCAT2(a, b)

/// Opens a wall span closed at end of scope. `name` must be a string
/// literal (or other static-storage string).
#define DLCOMP_TRACE_SPAN(name) \
  ::dlcomp::TraceSpan DLCOMP_TRACE_CONCAT(dlcomp_trace_span_, __LINE__) { name }

#define DLCOMP_TRACE_INSTANT(name)                                    \
  do {                                                                \
    if (::dlcomp::trace_enabled()) ::dlcomp::trace_instant(name);     \
  } while (false)

#define DLCOMP_TRACE_COUNTER(name, value)                                  \
  do {                                                                     \
    if (::dlcomp::trace_enabled()) ::dlcomp::trace_counter(name, value);   \
  } while (false)

#endif  // DLCOMP_TRACE_DISABLED
