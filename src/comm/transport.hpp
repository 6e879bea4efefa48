#pragma once

/// \file transport.hpp
/// Pluggable transport backend under the Communicator's collectives.
///
/// The Communicator offers all_to_all_v, all_reduce_sum and barrier.
/// Barrier is the transport's barrier(); the two data collectives reduce
/// to one primitive: each rank contributes a small fixed-size *control
/// block* plus one payload span per destination rank, and receives every
/// rank's control block plus the payloads addressed to it. The
/// Communicator packs its per-rank clock snapshot and payload-size
/// vector into the control block, so it can reconstruct the full size matrix and the slowest-arrival time on
/// every rank identically -- which is what makes SimClock charging (and
/// therefore every simulated number) bitwise identical across backends.
///
/// Two implementations:
///   SimTransport -- ranks are threads; payloads move by memcpy through
///                   shared slots guarded by an abortable barrier (the
///                   original thread+SimClock engine, extracted).
///   TcpTransport -- ranks are processes (or threads in tests); payloads
///                   move as length-prefixed frames over a full mesh of
///                   nonblocking localhost TCP sockets.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dlcomp {

/// Measured (wall-clock, real-byte) traffic through a transport
/// endpoint. For SimTransport the byte counters track actual memcpy
/// volume and wall_seconds stays ~0 (shared-memory copies are not what
/// the simulator models); for TcpTransport these are real socket bytes
/// and real blocking time -- the numbers the calibration step fits the
/// NetworkModel against.
struct TransportStats {
  std::uint64_t exchanges = 0;       ///< collective exchange calls
  std::uint64_t barriers = 0;        ///< barrier-only rendezvous calls
  std::uint64_t bytes_sent = 0;      ///< payload+control bytes to peers
  std::uint64_t bytes_received = 0;  ///< payload+control bytes from peers
  double wall_seconds = 0.0;         ///< real time blocked in the transport
};

/// Per-rank transport endpoint. Thread-compatible, not thread-safe: one
/// rank drives one endpoint. All ranks must call the same sequence of
/// exchange()/barrier() operations (SPMD discipline); the TCP backend
/// detects sequence desynchronization through frame tags and surfaces
/// it as an error instead of delivering wrong payloads.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual int world() const noexcept = 0;
  [[nodiscard]] virtual int rank() const noexcept = 0;

  /// True when ranks share one address space (sim backend). The trainer
  /// uses this to decide whether rank 0 can read peer-owned embedding
  /// tables directly or must sync them through collectives.
  [[nodiscard]] virtual bool shared_memory() const noexcept = 0;

  /// The collective primitive. `control` is this rank's control block
  /// (same size on every rank for a given call); `send` holds world()
  /// payload spans, one per destination (send[rank()] is the self
  /// chunk). On return `controls_out[r]` holds rank r's control block
  /// and `recv_out[r]` the payload rank r addressed to this rank; both
  /// are owned copies, valid after peers reuse their buffers.
  virtual void exchange(std::span<const std::byte> control,
                        std::span<const std::span<const std::byte>> send,
                        std::vector<std::vector<std::byte>>& controls_out,
                        std::vector<std::vector<std::byte>>& recv_out) = 0;

  /// Rendezvous with every rank (no payload, no control).
  virtual void barrier() = 0;

  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }

 protected:
  TransportStats stats_;
};

}  // namespace dlcomp
