#include "comm/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace dlcomp {

namespace detail {

CommContext::CommContext(int world_size, NetworkModel model)
    : world(world_size),
      net(model),
      transport(world_size),
      clocks(static_cast<std::size_t>(world_size)),
      wire_bytes_sent(static_cast<std::size_t>(world_size), 0),
      comm_stats(static_cast<std::size_t>(world_size)) {
  DLCOMP_CHECK(world_size >= 1);
  // Bind each per-rank clock to its sim-timeline trace track once; the
  // binding survives reset() across Cluster::run calls.
  for (int r = 0; r < world_size; ++r) {
    clocks[static_cast<std::size_t>(r)].set_trace_rank(r);
  }
}

}  // namespace detail

PendingCollective::Charge PendingCollective::wait() {
  Charge charge;
  if (waited_) return charge;
  waited_ = true;

  const double local = clock_->now();

  // Compute performed since issue first covers the pre-start gap (peers
  // still arriving / link busy): that part would have been charged to
  // "<phase>/wait" by a blocking call, so it counts as hidden wait —
  // in the clock's ledger and in the returned charge, mirroring how the
  // exposed stall below enters Charge.exposed_seconds.
  const bool traced = trace_enabled() && clock_->trace_rank() >= 0;

  const double hidden_wait = std::min(local, start_) - issue_;
  if (hidden_wait > 0.0) {
    clock_->record_hidden(names_->wait, hidden_wait);
    charge.hidden_seconds += hidden_wait;
    if (traced) {
      trace_sim_async(clock_->trace_rank(), names_->wait.c_str(), issue_,
                      issue_ + hidden_wait);
    }
  }

  // If the rank ran out of compute before the collective even started, it
  // idles until the start exactly like a blocking call would; that stall
  // is exposed communication time.
  const double stall = start_ - local;
  if (stall > 0.0) {
    clock_->sync_to(names_->wait, start_);
    charge.exposed_seconds += stall;
  }

  // Walk the modelled interval [start, start + sum(segments)]. Everything
  // the local clock already covers is hidden; the remainder is exposed
  // and advances the clock. With local <= start (no overlapped compute)
  // this degenerates to the blocking charge, bit for bit.
  const double overlap_until = std::max(local, start_);
  double seg_begin = start_;
  for (std::size_t i = 0; i < segment_count_; ++i) {
    const Segment& seg = segments_[i];
    const double hidden =
        std::clamp(overlap_until - seg_begin, 0.0, seg.seconds);
    const double exposed = seg.seconds - hidden;
    if (hidden > 0.0) {
      clock_->record_hidden(*seg.phase, hidden);
      charge.hidden_seconds += hidden;
      if (traced) {
        trace_sim_async(clock_->trace_rank(), seg.phase->c_str(), seg_begin,
                        seg_begin + hidden);
      }
    }
    // Advance whenever anything is exposed, and also for zero-duration
    // segments with no hiding — the latter mirrors the blocking path,
    // which creates the phase entry even at 0.0 seconds (bitwise parity).
    // Fully hidden segments must NOT plant phantom 0.0 entries in the
    // exposed breakdown.
    if (exposed > 0.0 || hidden == 0.0) {
      clock_->advance(*seg.phase, exposed);
    }
    charge.exposed_seconds += exposed;
    seg_begin += seg.seconds;
  }
  return charge;
}

void Communicator::barrier() {
  transport_.barrier();
  ++stats_.barrier_count;
}

double Communicator::exchange_with_clock(
    std::span<const std::uint64_t> meta,
    std::span<const std::span<const std::byte>> send,
    std::vector<std::uint64_t>& meta_out,
    std::vector<std::vector<std::byte>>& recv_out, double not_before) {
  const auto world = static_cast<std::size_t>(transport_.world());

  std::vector<std::byte> control(sizeof(double) +
                                 meta.size() * sizeof(std::uint64_t));
  const double now = clock_.now();
  std::memcpy(control.data(), &now, sizeof(now));
  if (!meta.empty()) {
    std::memcpy(control.data() + sizeof(double), meta.data(),
                meta.size() * sizeof(std::uint64_t));
  }

  std::vector<std::vector<std::byte>> controls;
  transport_.exchange(control, send, controls, recv_out);

  // Every rank was quiescent between posting its control block and the
  // exchange completing, so the snapshots are exactly the values the
  // former shared-memory scan read; max() over them in rank order is the
  // same double, bit for bit.
  meta_out.resize(world * meta.size());
  double latest = not_before;
  for (std::size_t r = 0; r < world; ++r) {
    DLCOMP_CHECK_MSG(controls[r].size() == control.size(),
                     "collective control-block size mismatch across ranks"
                     " -- SPMD call sites diverged");
    double peer_now = 0.0;
    std::memcpy(&peer_now, controls[r].data(), sizeof(peer_now));
    latest = std::max(latest, peer_now);
    if (!meta.empty()) {
      std::memcpy(meta_out.data() + r * meta.size(),
                  controls[r].data() + sizeof(double),
                  meta.size() * sizeof(std::uint64_t));
    }
  }
  return latest;
}

PendingCollective Communicator::all_to_all_v_async(
    const std::vector<std::vector<std::byte>>& send, std::string_view phase,
    double not_before) {
  const auto world = static_cast<std::size_t>(transport_.world());
  DLCOMP_CHECK_MSG(send.size() == world,
                   "all_to_all_v needs one chunk per destination");

  const auto me = static_cast<std::size_t>(rank());
  const PhaseNames& names = interned_phase(phase);

  // Stage (2) of the paper's pipeline: the control block carries the
  // compressed per-destination sizes, so peers can size receive buffers
  // and every rank can reconstruct the full size matrix. world*8 bytes
  // per rank over the wire.
  std::vector<std::uint64_t> sizes(world);
  std::vector<std::span<const std::byte>> spans(world);
  std::size_t send_wire = 0;
  for (std::size_t d = 0; d < world; ++d) {
    sizes[d] = send[d].size();
    spans[d] = std::span<const std::byte>(send[d]);
    if (d != me) send_wire += send[d].size();
  }

  // Stage (3): move payloads. Every rank computes the *global* bottleneck
  // wire volume -- max over ranks of max(bytes sent, bytes received) --
  // from the size matrix, so all ranks charge identical collective time.
  std::vector<std::uint64_t> meta_out;
  std::vector<std::vector<std::byte>> recv;
  const double latest =
      exchange_with_clock(sizes, spans, meta_out, recv, not_before);

  std::size_t bottleneck = 0;
  for (std::size_t src = 0; src < world; ++src) {
    std::size_t src_wire = 0;
    for (std::size_t d = 0; d < world; ++d) {
      if (d != src) src_wire += static_cast<std::size_t>(meta_out[src * world + d]);
    }
    bottleneck = std::max(bottleneck, src_wire);
  }
  for (std::size_t dst = 0; dst < world; ++dst) {
    std::size_t recv_wire = 0;
    for (std::size_t src = 0; src < world; ++src) {
      if (src != dst) {
        recv_wire += static_cast<std::size_t>(meta_out[src * world + dst]);
      }
    }
    bottleneck = std::max(bottleneck, recv_wire);
  }

  const std::size_t wire_bytes = send_wire + (world - 1) * sizeof(std::uint64_t);
  wire_bytes_ += wire_bytes;
  ++stats_.alltoall_count;
  stats_.alltoall_wire_bytes += wire_bytes;

  PendingCollective pending;
  pending.clock_ = &clock_;
  pending.names_ = &names;
  pending.issue_ = clock_.now();
  pending.start_ = latest;
  pending.segments_[0] = {
      &names.metadata,
      net_.alltoall_seconds((world - 1) * sizeof(std::uint64_t),
                            transport_.world())};
  pending.segments_[1] = {
      &names.base, net_.alltoall_seconds(bottleneck, transport_.world())};
  pending.segment_count_ = 2;
  pending.recv_ = std::move(recv);
  pending.waited_ = false;
  return pending;
}

void Communicator::all_reduce_sum(std::span<float> data, std::string_view phase) {
  PendingCollective pending = all_reduce_sum_async(data, phase);
  pending.wait();
}

PendingCollective Communicator::all_reduce_sum_async(std::span<float> data,
                                                     std::string_view phase) {
  const auto world = static_cast<std::size_t>(transport_.world());
  const PhaseNames& names = interned_phase(phase);

  // Every rank contributes its full buffer to every peer; each rank then
  // accumulates in rank order, so results are bitwise identical on all
  // ranks and across backends (same addends, same order).
  const std::uint64_t count = data.size();
  const auto bytes_span = std::as_bytes(std::span<const float>(data));
  std::vector<std::span<const std::byte>> spans(world, bytes_span);

  std::vector<std::uint64_t> meta_out;
  std::vector<std::vector<std::byte>> recv_out;
  const double latest =
      exchange_with_clock(std::span(&count, 1), spans, meta_out, recv_out);

  for (std::size_t r = 0; r < world; ++r) {
    DLCOMP_CHECK_MSG(meta_out[r] == count,
                     "all_reduce_sum size mismatch across ranks");
  }

  std::vector<float> acc(data.size(), 0.0f);
  for (std::size_t src = 0; src < world; ++src) {
    const auto* peer = reinterpret_cast<const float*>(recv_out[src].data());
    for (std::size_t i = 0; i < data.size(); ++i) acc[i] += peer[i];
  }
  std::copy(acc.begin(), acc.end(), data.begin());

  // Ring all-reduce moves ~2*(P-1)/P of the buffer over each rank's link.
  const std::size_t bytes = data.size() * sizeof(float);
  const double ring_factor =
      world <= 1 ? 0.0
                 : 2.0 * static_cast<double>(world - 1) /
                       static_cast<double>(world);
  const auto wire_bytes =
      static_cast<std::size_t>(ring_factor * static_cast<double>(bytes));
  wire_bytes_ += wire_bytes;
  ++stats_.allreduce_count;
  stats_.allreduce_wire_bytes += wire_bytes;

  PendingCollective pending;
  pending.clock_ = &clock_;
  pending.names_ = &names;
  pending.issue_ = clock_.now();
  pending.start_ = latest;
  pending.segments_[0] = {
      &names.base, net_.allreduce_seconds(bytes, transport_.world())};
  pending.segment_count_ = 1;
  pending.waited_ = false;
  return pending;
}

Cluster::Cluster(int world_size, NetworkModel model)
    : world_(world_size), ctx_(world_size, model) {}

void Cluster::run(const std::function<void(Communicator&)>& fn) {
  DLCOMP_CHECK(fn != nullptr);
  for (auto& c : ctx_.clocks) c.reset();
  std::fill(ctx_.wire_bytes_sent.begin(), ctx_.wire_bytes_sent.end(), 0);
  std::fill(ctx_.comm_stats.begin(), ctx_.comm_stats.end(), CommStats{});

  std::exception_ptr first_error;
  std::mutex error_mutex;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world_));
  for (int r = 0; r < world_; ++r) {
    threads.emplace_back([&, r] {
      // Wall spans recorded on this thread group under "rank r" in the
      // exported trace; the binding dies with the thread.
      trace_bind_thread_rank(r);
      const auto idx = static_cast<std::size_t>(r);
      SimTransport endpoint(ctx_.transport, r);
      Communicator comm(endpoint, ctx_.net, ctx_.clocks[idx],
                        ctx_.wire_bytes_sent[idx], ctx_.comm_stats[idx]);
      try {
        fn(comm);
      } catch (const AbortedError&) {
        // Secondary failure caused by another rank's abort; ignore.
      } catch (...) {
        {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        ctx_.transport.barrier().abort();
      }
    });
  }
  for (auto& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
  DLCOMP_CHECK_MSG(!ctx_.transport.barrier().aborted(),
                   "cluster aborted without a recorded exception");
}

double Cluster::makespan_seconds() const {
  double latest = 0.0;
  for (const auto& c : ctx_.clocks) latest = std::max(latest, c.now());
  return latest;
}

}  // namespace dlcomp
