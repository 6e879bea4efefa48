#pragma once

/// \file communicator.hpp
/// SPMD cluster and per-rank communicator. The Communicator owns the
/// *semantics* of every collective — deterministic data movement, the
/// NetworkModel charge on the rank's SimClock, per-phase attribution —
/// while the *mechanics* of moving bytes live behind the Transport
/// interface: SimTransport (ranks are threads, payload is a memcpy
/// through shared slots) or TcpTransport (ranks are processes, payload
/// is framed messages over localhost sockets).
///
/// It offers what a hybrid-parallel DLRM iteration needs and nothing
/// more: all_to_all_v_async for the embedding lookups and their gradients,
/// all_reduce_sum for the MLP gradients, and barrier around eval and
/// checkpoints. The two data collectives each reduce to one
/// Transport::exchange carrying a control block of
/// {clock snapshot, payload sizes}; because ranks are quiescent between
/// a collective's rendezvous points, reconstructing the slowest-arrival
/// time and the bottleneck wire volume from those snapshots is bitwise
/// identical to the former shared-memory scan — which is what keeps
/// simulated clocks, loss trajectories and wire CRCs byte-identical
/// across backends. See DESIGN.md "Transport backends and calibration".
///
/// The all-reduce comes in blocking and nonblocking flavors; the
/// all-to-all is nonblocking only. A nonblocking call moves the payload
/// immediately (real data motion completes inside the exchange) but
/// defers the *clock* charge to PendingCollective::wait(): compute
/// charged between issue and wait overlaps the modelled wire time, and
/// only the exposed remainder stalls the rank. See DESIGN.md "Overlap
/// and the simulated clock".

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "comm/network_model.hpp"
#include "comm/phase_names.hpp"
#include "comm/sim_transport.hpp"
#include "comm/transport.hpp"
#include "parallel/sim_clock.hpp"

namespace dlcomp {

class Communicator;

/// Per-collective traffic accounting for one rank: how many of each
/// collective ran and how many *modelled* wire bytes each family pushed
/// (the same modelled totals wire_bytes_sent sums, so the numbers are
/// backend-independent). Published as the comm/* keys of a trainer run's
/// TrainingResult::metrics.
struct CommStats {
  std::uint64_t alltoall_count = 0;
  std::uint64_t alltoall_wire_bytes = 0;
  std::uint64_t allreduce_count = 0;
  std::uint64_t allreduce_wire_bytes = 0;
  std::uint64_t barrier_count = 0;
};

namespace detail {

/// Shared state for one thread-rank cluster run.
struct CommContext {
  explicit CommContext(int world_size, NetworkModel model);

  const int world;
  const NetworkModel net;
  SimTransportGroup transport;
  std::vector<SimClock> clocks;
  std::vector<std::uint64_t> wire_bytes_sent;  // per-rank modelled traffic
  std::vector<CommStats> comm_stats;
};

}  // namespace detail

/// Handle to a collective issued with one of the *_async entry points.
/// The payload has already moved by the time the handle exists; what is
/// in flight is *simulated wire time*. wait() is purely local (no
/// barriers): it compares the rank's clock — advanced by whatever compute
/// ran since issue — against the collective's modelled interval
/// [start, start + duration], charges only the exposed remainder to the
/// clock, and records the overlapped part in the clock's hidden ledger.
/// Waiting immediately after issue reproduces the blocking collectives'
/// charges bit for bit.
class PendingCollective {
 public:
  /// Clock charge applied by wait().
  struct Charge {
    double exposed_seconds = 0.0;  ///< stall added to the rank's clock
    double hidden_seconds = 0.0;   ///< wire seconds absorbed by overlap
  };

  PendingCollective() = default;
  PendingCollective(PendingCollective&& other) noexcept { *this = std::move(other); }
  PendingCollective& operator=(PendingCollective&& other) noexcept {
    if (this != &other) {
      clock_ = other.clock_;
      names_ = other.names_;
      issue_ = other.issue_;
      start_ = other.start_;
      segments_ = other.segments_;
      segment_count_ = other.segment_count_;
      recv_ = std::move(other.recv_);
      waited_ = other.waited_;
      other.waited_ = true;  // a moved-from handle must never charge again
    }
    return *this;
  }
  PendingCollective(const PendingCollective&) = delete;
  PendingCollective& operator=(const PendingCollective&) = delete;

  /// Completes the collective on this rank's simulated clock and returns
  /// what was charged. Idempotent: later calls return a zero charge.
  Charge wait();

  /// True once wait() ran (or the handle was default-constructed/moved
  /// from). A destroyed un-waited handle simply never charges its time.
  [[nodiscard]] bool complete() const noexcept { return waited_; }

  /// Simulated time the collective starts: the slowest rank's issue time,
  /// floored by the issue-time `not_before` (link serialization).
  [[nodiscard]] double start_seconds() const noexcept { return start_; }

  /// Simulated completion time (start + every modelled segment).
  [[nodiscard]] double completion_seconds() const noexcept {
    double t = start_;
    for (std::size_t i = 0; i < segment_count_; ++i) t += segments_[i].seconds;
    return t;
  }

  /// Received per-source buffers (all_to_all_v_async only).
  [[nodiscard]] std::vector<std::vector<std::byte>>& recv() noexcept {
    return recv_;
  }

 private:
  friend class Communicator;

  /// One attributed slice of the collective's wire time, in order
  /// (e.g. metadata then payload). Phase strings are interned, so the
  /// pointers outlive every handle.
  struct Segment {
    const std::string* phase = nullptr;
    double seconds = 0.0;
  };

  SimClock* clock_ = nullptr;
  const PhaseNames* names_ = nullptr;
  double issue_ = 0.0;  ///< this rank's clock when it issued
  double start_ = 0.0;
  std::array<Segment, 2> segments_{};
  std::size_t segment_count_ = 0;
  std::vector<std::vector<std::byte>> recv_;
  bool waited_ = true;
};

/// Per-rank handle used inside SPMD rank bodies. Not copyable; each rank
/// owns exactly one for the duration of the SPMD region. The transport
/// endpoint decides *how* bytes move; everything simulated (clock,
/// NetworkModel charges, wire accounting) lives here and is therefore
/// identical across backends.
class Communicator {
 public:
  Communicator(Transport& transport, const NetworkModel& net, SimClock& clock,
               std::uint64_t& wire_bytes_sent, CommStats& stats)
      : transport_(transport),
        net_(net),
        clock_(clock),
        wire_bytes_(wire_bytes_sent),
        stats_(stats) {}

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] int rank() const noexcept { return transport_.rank(); }
  [[nodiscard]] int world() const noexcept { return transport_.world(); }

  /// The transport endpoint underneath (for backend-specific queries:
  /// shared_memory(), real traffic stats).
  [[nodiscard]] Transport& transport() noexcept { return transport_; }

  /// Per-rank simulated clock (advanced by collectives; compute phases
  /// may advance it explicitly via advance_compute).
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }

  /// Total bytes this rank has pushed over the simulated wire.
  [[nodiscard]] std::uint64_t wire_bytes_sent() const noexcept {
    return wire_bytes_;
  }

  /// Per-collective accounting for this rank.
  [[nodiscard]] const CommStats& comm_stats() const noexcept { return stats_; }

  /// Attributes modelled (non-communication) time to this rank's clock.
  void advance_compute(std::string_view phase, double seconds) {
    clock_.advance(phase, seconds);
  }

  /// Barrier across all ranks (no simulated time charged).
  void barrier();

  /// Variable-size all-to-all over byte chunks: send[d] goes to rank d;
  /// handle.recv()[s] is the chunk rank s sent here. This models the
  /// paper's stage (2)+(3): chunk sizes are exchanged first (metadata
  /// all-to-all, charged separately to phase "<phase>/metadata"), then
  /// payloads move. Nonblocking: payloads move now, the clock is charged
  /// at handle.wait() under the overlap model. `not_before` floors the
  /// simulated start time (every rank must pass the same value) — the
  /// pipelined exchange uses it to serialize chunk groups on one link.
  [[nodiscard]] PendingCollective all_to_all_v_async(
      const std::vector<std::vector<std::byte>>& send, std::string_view phase,
      double not_before = 0.0);

  /// In-place sum all-reduce (deterministic: every rank accumulates peer
  /// buffers in rank order, so results are bitwise identical everywhere).
  void all_reduce_sum(std::span<float> data, std::string_view phase);

  /// Nonblocking all-reduce: `data` holds the reduced result on return
  /// (real movement is immediate), but simulated completion is charged at
  /// handle.wait(). Callers must not *logically* consume the result
  /// before waiting.
  [[nodiscard]] PendingCollective all_reduce_sum_async(std::span<float> data,
                                                       std::string_view phase);

 private:
  /// One Transport::exchange with the standard control block
  /// {f64 clock_now, u64 meta[meta_count]}. Returns every rank's decoded
  /// control words in `meta_out` (world rows of meta_count u64s, rank
  /// order) and the slowest rank's clock (seeded by `not_before`) —
  /// bitwise equal to the former shared-memory clock scan, because max()
  /// over the same doubles in rank order is order-stable.
  double exchange_with_clock(std::span<const std::uint64_t> meta,
                             std::span<const std::span<const std::byte>> send,
                             std::vector<std::uint64_t>& meta_out,
                             std::vector<std::vector<std::byte>>& recv_out,
                             double not_before = 0.0);

  Transport& transport_;
  const NetworkModel net_;
  SimClock& clock_;
  std::uint64_t& wire_bytes_;
  CommStats& stats_;
};

/// Owns the shared context and runs SPMD regions on one thread per rank
/// over the SimTransport backend. (Multi-process runs build a TcpRuntime
/// per rank instead; the rank body code is identical.)
class Cluster {
 public:
  explicit Cluster(int world_size, NetworkModel model = {});

  [[nodiscard]] int world() const noexcept { return world_; }

  /// Runs `fn(comm)` on world() threads. If any rank throws, the barrier
  /// aborts so peers unblock; the first exception is rethrown here.
  void run(const std::function<void(Communicator&)>& fn);

  /// Per-rank clocks from the most recent run (reset at each run()).
  [[nodiscard]] const std::vector<SimClock>& clocks() const noexcept {
    return ctx_.clocks;
  }

  /// Per-rank wire traffic from the most recent run.
  [[nodiscard]] const std::vector<std::uint64_t>& wire_bytes_sent() const noexcept {
    return ctx_.wire_bytes_sent;
  }

  /// Per-rank collective accounting from the most recent run.
  [[nodiscard]] const std::vector<CommStats>& comm_stats() const noexcept {
    return ctx_.comm_stats;
  }

  /// Maximum simulated time across ranks from the most recent run.
  [[nodiscard]] double makespan_seconds() const;

 private:
  const int world_;
  detail::CommContext ctx_;
};

}  // namespace dlcomp
