#pragma once

/// \file batch_scheduler.hpp
/// Deadline-bounded dynamic batching: coalesces an arrival-ordered query
/// stream into inference batches, flushing when a batch reaches the
/// sample budget or when holding it longer would push the oldest query
/// past its batching deadline. This is the serving analogue of the
/// training-side chunking policy: bigger batches amortize fixed per-call
/// cost, the deadline caps the queueing term of tail latency.
///
/// Scheduling is a pure function of the query stream (simulated clock),
/// so the policy is unit-testable; the ServingSimulator executes the
/// resulting plan on the ThreadPool.

#include <span>
#include <vector>

#include "serve/query.hpp"

namespace dlcomp {

struct BatchSchedulerConfig {
  /// Flush once a batch holds this many samples (single queries larger
  /// than the budget become their own oversized batch).
  std::size_t max_batch_samples = 256;
  /// Max time a query may wait in the pending batch before dispatch.
  double max_delay_s = 0.002;

  // --- SLO admission control (plan() only; 0 slo_s disables) ---

  /// End-to-end latency objective. A query whose *estimated* completion
  /// (under the cost model below, against the modeled backlog) exceeds
  /// arrival + slo_s is shed at admission instead of joining a batch —
  /// rejecting early is cheaper than serving an answer nobody waits for.
  double slo_s = 0.0;
  /// Cost model: estimated service time = overhead + samples * per-sample.
  /// Deliberately coarse (admission is per query, ignoring the batching
  /// amortization) so shedding stays a pure function of the query stream.
  double est_service_per_sample_s = 2e-6;
  double est_batch_overhead_s = 100e-6;
  /// Modeled parallel servers for the backlog estimate (match the
  /// replica count to make the estimate track the real fleet).
  std::size_t modeled_servers = 1;
};

/// A dispatchable unit: one or more whole queries scored together.
struct InferenceBatch {
  std::vector<Query> queries;
  /// Dispatch time on the simulated clock; >= every member's arrival_s
  /// and <= every member's arrival_s + max_delay_s.
  double dispatch_s = 0.0;

  [[nodiscard]] std::size_t total_samples() const noexcept {
    std::size_t n = 0;
    for (const Query& q : queries) n += q.num_samples;
    return n;
  }
};

/// plan() output: the dispatchable batches plus the queries shed by SLO
/// admission (disjoint; together they cover the input stream exactly).
struct SchedulePlan {
  std::vector<InferenceBatch> batches;
  std::vector<Query> shed;
};

class BatchScheduler {
 public:
  /// Validates the config (throws Error on zero budgets).
  explicit BatchScheduler(BatchSchedulerConfig config);

  [[nodiscard]] const BatchSchedulerConfig& config() const noexcept {
    return config_;
  }

  /// The policy: SLO admission (when slo_s > 0) followed by
  /// deadline/size-aware coalescing of `queries` (must be sorted by
  /// arrival_s; throws Error otherwise) into batches in dispatch order.
  /// With slo_s = 0 nothing is shed and every query lands in exactly one
  /// batch. Deterministic — both phases are pure functions of the query
  /// stream and the config's cost model, so shed counts are bit-stable
  /// across machines.
  [[nodiscard]] SchedulePlan plan(std::span<const Query> queries) const;

 private:
  /// The coalescing phase of plan() over the admitted queries.
  [[nodiscard]] std::vector<InferenceBatch> schedule(
      std::span<const Query> queries) const;

  BatchSchedulerConfig config_;
};

}  // namespace dlcomp
