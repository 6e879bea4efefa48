#pragma once

/// \file network_model.hpp
/// Alpha-beta (latency-bandwidth) cost model for the simulated
/// interconnect. The paper evaluates communication speedups at an
/// all-to-all throughput of 4 GB/s (Fig. 11) on a Slingshot-10 fabric;
/// that is the default here. Collectives in dlcomp::comm perform real
/// payload exchange through shared memory and advance simulated clocks by
/// the times this model predicts.

#include <cstddef>

namespace dlcomp {

struct NetworkModel {
  /// Effective per-rank all-to-all injection bandwidth (bytes/second).
  /// The paper evaluates communication speedup at 4 GB/s (Fig. 11).
  double bandwidth_bytes_per_second = 4e9;

  /// Collective startup latency (alpha term), seconds. Charged once per
  /// collective: NCCL-style schedules overlap the pairwise exchanges, so
  /// completion is alpha + volume/bandwidth rather than one alpha per
  /// peer. The default reflects a tightly-coupled fabric where DLRM
  /// all-to-alls are bandwidth-dominated (the paper's regime: >60% of
  /// iteration time goes to moving payload bytes).
  double latency_seconds = 2e-6;

  /// Dense-gradient all-reduce bandwidth. In hybrid-parallel DLRM the MLP
  /// all-reduce runs over NVLink-class links (hierarchical rings inside
  /// the node), far faster than the cross-node all-to-all path.
  double allreduce_bandwidth_bytes_per_second = 100e9;

  /// All-to-all completion time given the largest per-rank wire volume
  /// (max over ranks of max(bytes sent to peers, bytes received from
  /// peers); the self-chunk never crosses the wire).
  [[nodiscard]] double alltoall_seconds(std::size_t max_wire_bytes_per_rank,
                                        int world) const noexcept {
    if (world <= 1) return 0.0;
    return latency_seconds + static_cast<double>(max_wire_bytes_per_rank) /
                                 bandwidth_bytes_per_second;
  }

  /// Ring all-reduce completion time for `bytes` per rank.
  [[nodiscard]] double allreduce_seconds(std::size_t bytes,
                                         int world) const noexcept {
    if (world <= 1) return 0.0;
    const double chunk_factor = 2.0 * static_cast<double>(world - 1) /
                                static_cast<double>(world);
    return 2.0 * latency_seconds +
           chunk_factor * static_cast<double>(bytes) /
               allreduce_bandwidth_bytes_per_second;
  }
};

}  // namespace dlcomp
