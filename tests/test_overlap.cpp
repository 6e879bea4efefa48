// Tests for the overlap-aware pipelined communication runtime: the
// SimClock hidden ledger, nonblocking collectives and their charging
// model, the fused single-barrier-pair all_to_all_v accounting, the
// stage-pipelined compressed exchange (byte-identical to monolithic), and
// the trainer's OverlapPolicy (bitwise-equal training math, conserved
// accounting, zero steady-state allocations).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "compress/registry.hpp"
#include "core/compressed_alltoall.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace dlcomp {
namespace {

/// Exposed phase seconds must sum to now() on every clock, overlap or not
/// (hidden seconds live in a separate ledger).
void expect_conserved(const SimClock& clock) {
  double total = 0.0;
  for (const auto& [phase, seconds] : clock.breakdown()) total += seconds;
  EXPECT_NEAR(total, clock.now(), 1e-12 + 1e-9 * std::fabs(clock.now()));
}

TEST(SimClockOverlap, HiddenLedgerIsSeparateFromNow) {
  SimClock clock;
  clock.advance("compute", 2.0);
  clock.record_hidden("comm", 1.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  EXPECT_DOUBLE_EQ(clock.phase_seconds("comm"), 0.0);
  EXPECT_DOUBLE_EQ(clock.hidden_seconds("comm"), 1.5);
  EXPECT_EQ(clock.hidden_breakdown().size(), 1u);
  EXPECT_EQ(clock.breakdown().size(), 1u);
  expect_conserved(clock);

  clock.reset();
  EXPECT_DOUBLE_EQ(clock.hidden_seconds("comm"), 0.0);
  EXPECT_TRUE(clock.hidden_breakdown().empty());
}

TEST(SimClockOverlap, StringViewLookupMatchesStringKeys) {
  SimClock clock;
  const std::string key = "alltoall_fwd/compress";
  clock.advance(key, 0.25);
  clock.advance(std::string_view("alltoall_fwd/compress"), 0.25);
  EXPECT_DOUBLE_EQ(clock.phase_seconds(key), 0.5);
  const auto breakdown = clock.breakdown();
  ASSERT_EQ(breakdown.size(), 1u);
  EXPECT_EQ(breakdown.begin()->first, key);
}

// The fused (single barrier pair) all_to_all_v must charge exactly what
// the two-step serial model defines: sync to the slowest arrival under
// "<phase>/wait", then the metadata time, then the payload time.
TEST(FusedCharging, AllToAllVMatchesSerialModelBitwise) {
  const int world = 3;
  Cluster cluster(world);
  const NetworkModel net;

  // Chunk size r*7 + d + 1 (as in test_comm): per-rank pre-compute skews
  // the clocks so the wait term is nonzero and different per rank.
  std::size_t bottleneck = 0;
  for (int r = 0; r < world; ++r) {
    std::size_t sent = 0;
    std::size_t recv = 0;
    for (int d = 0; d < world; ++d) {
      if (d == r) continue;
      sent += static_cast<std::size_t>(r * 7 + d + 1);
      recv += static_cast<std::size_t>(d * 7 + r + 1);
    }
    bottleneck = std::max(bottleneck, std::max(sent, recv));
  }
  const double t_meta =
      net.alltoall_seconds((world - 1) * sizeof(std::uint64_t), world);
  const double t_pay = net.alltoall_seconds(bottleneck, world);
  const double latest_pre = 1e-3 * (world - 1);

  cluster.run([&](Communicator& comm) {
    const int r = comm.rank();
    comm.advance_compute("pre", 1e-3 * r);
    std::vector<std::vector<std::byte>> send(world);
    for (int d = 0; d < world; ++d) {
      send[d].assign(static_cast<std::size_t>(r * 7 + d + 1),
                     static_cast<std::byte>(r));
    }
    comm.all_to_all_v_async(send, "x").wait();

    EXPECT_DOUBLE_EQ(comm.clock().phase_seconds("x/wait"),
                     latest_pre - 1e-3 * r);
    EXPECT_DOUBLE_EQ(comm.clock().phase_seconds("x/metadata"), t_meta);
    EXPECT_DOUBLE_EQ(comm.clock().phase_seconds("x"), t_pay);
    EXPECT_DOUBLE_EQ(comm.clock().now(), latest_pre + t_meta + t_pay);
    EXPECT_DOUBLE_EQ(comm.clock().hidden_seconds("x"), 0.0);
    expect_conserved(comm.clock());
  });
}

TEST(AsyncCollectives, AllReduceFullyHiddenUnderLongCompute) {
  const int world = 2;
  Cluster cluster(world);
  const NetworkModel net;
  const std::size_t n = 4096;
  const double ar = net.allreduce_seconds(n * sizeof(float), world);
  ASSERT_GT(ar, 0.0);

  cluster.run([&](Communicator& comm) {
    std::vector<float> data(n, 1.0f);
    comm.advance_compute("pre", 1.0);
    PendingCollective pending = comm.all_reduce_sum_async(data, "ar");
    EXPECT_FALSE(pending.complete());
    comm.advance_compute("overlapped", 10.0 * ar);
    const auto charge = pending.wait();
    EXPECT_TRUE(pending.complete());

    // Data really reduced.
    EXPECT_FLOAT_EQ(data[0], 2.0f);
    // Entirely hidden: no stall, full duration in the hidden ledger.
    EXPECT_DOUBLE_EQ(charge.exposed_seconds, 0.0);
    EXPECT_DOUBLE_EQ(charge.hidden_seconds, ar);
    EXPECT_DOUBLE_EQ(comm.clock().now(), 1.0 + 10.0 * ar);
    EXPECT_DOUBLE_EQ(comm.clock().hidden_seconds("ar"), ar);
    EXPECT_DOUBLE_EQ(comm.clock().phase_seconds("ar"), 0.0);
    expect_conserved(comm.clock());

    // Second wait is a no-op.
    const auto again = pending.wait();
    EXPECT_DOUBLE_EQ(again.exposed_seconds, 0.0);
    EXPECT_DOUBLE_EQ(again.hidden_seconds, 0.0);
  });
}

TEST(AsyncCollectives, AllReducePartiallyHiddenUnderShortCompute) {
  const int world = 2;
  Cluster cluster(world);
  const NetworkModel net;
  const std::size_t n = 1 << 20;
  const double ar = net.allreduce_seconds(n * sizeof(float), world);

  cluster.run([&](Communicator& comm) {
    std::vector<float> data(n, 0.5f);
    comm.advance_compute("pre", 1.0);
    PendingCollective pending = comm.all_reduce_sum_async(data, "ar");
    comm.advance_compute("overlapped", 0.25 * ar);
    const auto charge = pending.wait();

    // NEAR, not EQ: hidden is measured as (local clock - start), which
    // differs from 0.25*ar by one double rounding at now() ~ 1.0.
    EXPECT_NEAR(charge.hidden_seconds, 0.25 * ar, 1e-15);
    EXPECT_NEAR(charge.exposed_seconds, ar - 0.25 * ar, 1e-15);
    EXPECT_NEAR(charge.exposed_seconds + charge.hidden_seconds, ar, 1e-18);
    // The rank stalls until the collective's completion time.
    EXPECT_NEAR(comm.clock().now(), 1.0 + ar, 1e-15);
    expect_conserved(comm.clock());
  });
}

TEST(AsyncCollectives, ImmediateWaitEqualsBlockingCharge) {
  const int world = 3;
  Cluster blocking(world);
  Cluster async(world);
  const std::size_t n = 1000;

  std::vector<double> blocking_now(world), async_now(world);
  blocking.run([&](Communicator& comm) {
    comm.advance_compute("pre", 1e-4 * comm.rank());
    std::vector<float> data(n, 1.0f);
    comm.all_reduce_sum(data, "ar");
    blocking_now[static_cast<std::size_t>(comm.rank())] = comm.clock().now();
  });
  async.run([&](Communicator& comm) {
    comm.advance_compute("pre", 1e-4 * comm.rank());
    std::vector<float> data(n, 1.0f);
    PendingCollective pending = comm.all_reduce_sum_async(data, "ar");
    pending.wait();
    async_now[static_cast<std::size_t>(comm.rank())] = comm.clock().now();
    EXPECT_DOUBLE_EQ(comm.clock().hidden_seconds("ar"), 0.0);
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_DOUBLE_EQ(blocking_now[static_cast<std::size_t>(r)],
                     async_now[static_cast<std::size_t>(r)]);
  }
}

TEST(AsyncCollectives, NotBeforeSerializesLink) {
  const int world = 2;
  Cluster cluster(world);
  cluster.run([&](Communicator& comm) {
    std::vector<std::vector<std::byte>> send(world);
    for (int d = 0; d < world; ++d) send[d].assign(256, std::byte{1});

    PendingCollective first = comm.all_to_all_v_async(send, "x");
    const double c0 = first.completion_seconds();
    PendingCollective second = comm.all_to_all_v_async(send, "x", c0);
    EXPECT_GE(second.start_seconds(), c0);
    first.wait();
    second.wait();
    expect_conserved(comm.clock());
  });
}

// ---------------------------------------------------------------------
// Pipelined exchange vs monolithic: byte-identical results and wire size.

struct ExchangeOutcome {
  std::vector<std::vector<std::vector<float>>> out;  // [rank][chunk] floats
  std::vector<A2AStats> stats;                       // per rank
};

ExchangeOutcome run_exchange(const char* codec_name, int world,
                             std::size_t chunks, std::size_t elems,
                             std::size_t pipeline_stages,
                             std::size_t empty_sender_rank = SIZE_MAX) {
  ExchangeOutcome outcome;
  outcome.out.resize(static_cast<std::size_t>(world));
  outcome.stats.resize(static_cast<std::size_t>(world));
  Cluster cluster(world);
  ThreadPool pool(2);

  cluster.run([&](Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const bool i_send = r != empty_sender_rank;
    Rng rng(4000 + comm.rank());
    std::vector<std::vector<std::vector<float>>> payload(world);
    std::vector<std::vector<A2AChunkSpec>> send(world);
    for (int d = 0; d < world; ++d) {
      if (!i_send) continue;
      payload[d].resize(chunks);
      for (std::size_t c = 0; c < chunks; ++c) {
        payload[d][c].resize(elems);
        for (auto& v : payload[d][c]) {
          v = static_cast<float>(rng.normal(0.0, 0.2));
        }
        A2AChunkSpec spec;
        spec.data = payload[d][c];
        spec.params.error_bound = 0.01;
        spec.params.vector_dim = 16;
        send[d].push_back(spec);
      }
    }

    auto& mine = outcome.out[r];
    std::vector<std::vector<std::span<float>>> recv(world);
    std::size_t slot = 0;
    mine.resize(world * chunks);
    for (int s = 0; s < world; ++s) {
      const std::size_t n =
          static_cast<std::size_t>(s) == empty_sender_rank ? 0 : chunks;
      for (std::size_t c = 0; c < n; ++c) {
        mine[slot].resize(elems);
        recv[s].emplace_back(mine[slot]);
        ++slot;
      }
    }
    mine.resize(slot);

    CompressedAllToAllConfig config;
    if (codec_name != nullptr) config.codec = &get_compressor(codec_name);
    config.pool = &pool;
    config.pipeline_stages = pipeline_stages;
    const CompressedAllToAll a2a(config);
    outcome.stats[r] = a2a.exchange(comm, send, recv, "exchange");
    expect_conserved(comm.clock());
  });
  return outcome;
}

class PipelinedExchange : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelinedExchange, ByteIdenticalToMonolithic) {
  const int world = 4;
  const std::size_t chunks = 5;
  const std::size_t elems = 16 * 24;
  const std::size_t stages = GetParam();

  const ExchangeOutcome mono =
      run_exchange("hybrid", world, chunks, elems, 1);
  const ExchangeOutcome pipe =
      run_exchange("hybrid", world, chunks, elems, stages);

  for (int r = 0; r < world; ++r) {
    const auto& a = mono.out[static_cast<std::size_t>(r)];
    const auto& b = pipe.out[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
      ASSERT_EQ(a[c].size(), b[c].size());
      ASSERT_EQ(0, std::memcmp(a[c].data(), b[c].data(),
                               a[c].size() * sizeof(float)))
          << "rank " << r << " chunk " << c;
    }
    // Identical wire bytes: the directory travels exactly once either way.
    EXPECT_EQ(mono.stats[static_cast<std::size_t>(r)].send_wire_bytes,
              pipe.stats[static_cast<std::size_t>(r)].send_wire_bytes);
    EXPECT_EQ(mono.stats[static_cast<std::size_t>(r)].send_raw_bytes,
              pipe.stats[static_cast<std::size_t>(r)].send_raw_bytes);
  }
}

// More stages than chunks (some groups empty) and the raw codec.
INSTANTIATE_TEST_SUITE_P(StageCounts, PipelinedExchange,
                         ::testing::Values(2u, 3u, 5u, 8u));

TEST(PipelinedExchangeEdge, RawCodecAndEmptySender) {
  const int world = 3;
  const ExchangeOutcome mono =
      run_exchange(nullptr, world, 2, 64, 1, /*empty_sender_rank=*/1);
  const ExchangeOutcome pipe =
      run_exchange(nullptr, world, 2, 64, 4, /*empty_sender_rank=*/1);
  for (int r = 0; r < world; ++r) {
    const auto& a = mono.out[static_cast<std::size_t>(r)];
    const auto& b = pipe.out[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
      ASSERT_EQ(0, std::memcmp(a[c].data(), b[c].data(),
                               a[c].size() * sizeof(float)));
    }
    EXPECT_EQ(mono.stats[static_cast<std::size_t>(r)].send_wire_bytes,
              pipe.stats[static_cast<std::size_t>(r)].send_wire_bytes);
  }
}

TEST(PipelinedExchange, HidesCommBehindCodecTime) {
  const int world = 4;
  // Large chunks so the wire and codec slices dominate the alpha terms.
  const ExchangeOutcome mono =
      run_exchange("hybrid", world, 4, 16 * 1024, 1);
  const ExchangeOutcome pipe =
      run_exchange("hybrid", world, 4, 16 * 1024, 4);

  double mono_exposed = 0.0;
  double pipe_exposed = 0.0;
  double pipe_hidden = 0.0;
  for (int r = 0; r < world; ++r) {
    mono_exposed = std::max(
        mono_exposed, mono.stats[static_cast<std::size_t>(r)].exposed_comm_seconds);
    pipe_exposed = std::max(
        pipe_exposed, pipe.stats[static_cast<std::size_t>(r)].exposed_comm_seconds);
    pipe_hidden = std::max(
        pipe_hidden, pipe.stats[static_cast<std::size_t>(r)].hidden_comm_seconds);
    // Monolithic exchange with no overlapped caller compute exposes all.
    EXPECT_DOUBLE_EQ(
        mono.stats[static_cast<std::size_t>(r)].hidden_comm_seconds, 0.0);
  }
  EXPECT_GT(pipe_hidden, 0.0);
  EXPECT_LT(pipe_exposed, mono_exposed);
}

TEST(ExchangeBeginFinish, CallerComputeHidesWireTime) {
  const int world = 2;
  Cluster cluster(world);
  const std::size_t elems = 32 * 1024;
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(elems, 0.75f);
    std::vector<std::vector<A2AChunkSpec>> send(world);
    for (int d = 0; d < world; ++d) {
      A2AChunkSpec spec;
      spec.data = data;
      spec.params.error_bound = 0.01;
      send[d].push_back(spec);
    }
    std::vector<std::vector<std::vector<float>>> out(world);
    std::vector<std::vector<std::span<float>>> recv(world);
    for (int s = 0; s < world; ++s) {
      out[s].resize(1);
      out[s][0].resize(elems);
      recv[s].emplace_back(out[s][0]);
    }
    CompressedAllToAllConfig config;
    config.codec = &get_compressor("hybrid");
    const CompressedAllToAll a2a(config);

    auto pending = a2a.exchange_begin(comm, send, recv, "x");
    comm.advance_compute("overlapped", 1.0);  // far longer than the wire
    const A2AStats stats = pending.finish();

    EXPECT_DOUBLE_EQ(stats.exposed_comm_seconds, 0.0);
    EXPECT_GT(stats.hidden_comm_seconds, 0.0);
    for (std::size_t k = 0; k < elems; ++k) {
      ASSERT_NEAR(out[0][0][k], 0.75f, 0.011);
    }
    expect_conserved(comm.clock());
  });
}

// ---------------------------------------------------------------------
// Trainer-level overlap.

DatasetSpec proxy_spec() { return DatasetSpec::small_training_proxy(6, 8); }

TrainerConfig base_config() {
  TrainerConfig config;
  config.world = 2;
  config.global_batch = 64;
  config.iterations = 12;
  config.model.bottom_hidden = {16};
  config.model.top_hidden = {16};
  config.model.learning_rate = 0.05f;
  config.record_every = 1;
  config.eval_batches = 2;
  config.seed = 21;
  return config;
}

void expect_bitwise_equal_history(const TrainingResult& a,
                                  const TrainingResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.history[i].train_loss, b.history[i].train_loss)
        << "iteration " << i;
    ASSERT_DOUBLE_EQ(a.history[i].train_accuracy, b.history[i].train_accuracy);
  }
  EXPECT_DOUBLE_EQ(a.final_eval.loss, b.final_eval.loss);
}

TEST(TrainerOverlap, LossHistoryBitwiseEqualWithoutCompression) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 17);
  TrainerConfig config = base_config();
  config.compression.codec.clear();

  const TrainingResult serial = HybridParallelTrainer(config).train(data);
  config.overlap.forward = true;
  config.overlap.backward = true;
  config.overlap.pipeline_stages = 3;
  const TrainingResult overlapped = HybridParallelTrainer(config).train(data);

  expect_bitwise_equal_history(serial, overlapped);
  EXPECT_EQ(serial.forward_wire_bytes, overlapped.forward_wire_bytes);
  EXPECT_EQ(serial.backward_wire_bytes, overlapped.backward_wire_bytes);
}

TEST(TrainerOverlap, LossHistoryBitwiseEqualWithCompression) {
  // Overlap only reschedules; even the lossy pipeline performs identical
  // float operations in the same order.
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 18);
  TrainerConfig config = base_config();
  config.compression.codec = "hybrid";
  config.compression.global_eb = 0.01;

  const TrainingResult serial = HybridParallelTrainer(config).train(data);
  config.overlap.forward = true;
  config.overlap.backward = true;
  config.overlap.pipeline_stages = 2;
  const TrainingResult overlapped = HybridParallelTrainer(config).train(data);

  expect_bitwise_equal_history(serial, overlapped);
  EXPECT_EQ(serial.forward_wire_bytes, overlapped.forward_wire_bytes);
  EXPECT_EQ(serial.backward_wire_bytes, overlapped.backward_wire_bytes);
}

TEST(TrainerOverlap, AccountingConservedAndCommHidden) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 19);
  TrainerConfig config = base_config();
  config.compression.codec = "hybrid";

  const TrainingResult serial = HybridParallelTrainer(config).train(data);
  // Overlap without extra pipeline stages: at this toy scale the pipeline's
  // extra alpha/launch terms can outweigh its hiding (the paper-scale
  // benches are where stages pay off), but trainer-level overlap alone
  // must never lengthen the critical path.
  config.overlap.forward = true;
  config.overlap.backward = true;
  const TrainingResult overlapped = HybridParallelTrainer(config).train(data);

  // Exposed breakdown sums to the makespan in both schedules.
  for (const TrainingResult* r : {&serial, &overlapped}) {
    double total = 0.0;
    for (const auto& [phase, seconds] : r->phase_seconds) total += seconds;
    EXPECT_NEAR(total, r->makespan_seconds,
                1e-12 + 1e-9 * r->makespan_seconds);
  }

  EXPECT_DOUBLE_EQ(serial.hidden_comm_seconds(), 0.0);
  EXPECT_GT(overlapped.hidden_comm_seconds(), 0.0);
  EXPECT_LT(overlapped.exposed_comm_seconds(), serial.exposed_comm_seconds());
  EXPECT_LT(overlapped.makespan_seconds, serial.makespan_seconds);
}

TEST(TrainerSteadyState, NoGrowEventsWithCompressedBackward) {
  const DatasetSpec spec = proxy_spec();
  const SyntheticClickDataset data(spec, 20);
  TrainerConfig config = base_config();
  config.compression.codec = "hybrid";
  config.overlap.pipeline_stages = 2;
  const TrainingResult result = HybridParallelTrainer(config).train(data);
  EXPECT_EQ(result.steady_state_grow_events, 0u);
}

}  // namespace
}  // namespace dlcomp
