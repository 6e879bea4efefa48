// Tests for the SPMD cluster and collectives.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "comm/communicator.hpp"
#include "common/error.hpp"

namespace dlcomp {
namespace {

TEST(NetworkModelTest, TimesScaleWithVolume) {
  NetworkModel net;
  EXPECT_GT(net.alltoall_seconds(1 << 20, 4), net.alltoall_seconds(1 << 10, 4));
  EXPECT_EQ(net.alltoall_seconds(1 << 20, 1), 0.0);
  EXPECT_GT(net.allreduce_seconds(1 << 20, 8), 0.0);
  EXPECT_EQ(net.allreduce_seconds(1 << 20, 1), 0.0);
}

TEST(Cluster, BarrierCompletes) {
  Cluster cluster(8);
  std::atomic<int> arrived{0};
  cluster.run([&](Communicator& comm) {
    arrived.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(arrived.load(), 8);
  });
}

TEST(Cluster, VariableAllToAllRoutesChunks) {
  const int world = 3;
  Cluster cluster(world);
  cluster.run([&](Communicator& comm) {
    const int r = comm.rank();
    std::vector<std::vector<std::byte>> send(world);
    for (int d = 0; d < world; ++d) {
      // Chunk size differs per (src, dst) pair: r*7 + d + 1 bytes.
      send[d].assign(static_cast<std::size_t>(r * 7 + d + 1),
                     static_cast<std::byte>(10 * r + d));
    }
    auto pending = comm.all_to_all_v_async(send, "test");
    pending.wait();
    const auto& recv = pending.recv();
    for (int s = 0; s < world; ++s) {
      ASSERT_EQ(recv[s].size(), static_cast<std::size_t>(s * 7 + r + 1));
      for (const auto b : recv[s]) {
        ASSERT_EQ(b, static_cast<std::byte>(10 * s + r));
      }
    }
  });
}

TEST(Cluster, AllReduceSumsIdenticallyEverywhere) {
  const int world = 5;
  Cluster cluster(world);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(16);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<float>(comm.rank() + 1) * static_cast<float>(i);
    }
    comm.all_reduce_sum(data, "test");
    // Sum over ranks of (r+1)*i = i * world*(world+1)/2.
    const float factor = world * (world + 1) / 2.0f;
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_FLOAT_EQ(data[i], factor * static_cast<float>(i));
    }
  });
}

TEST(Cluster, ExceptionInOneRankPropagatesWithoutDeadlock) {
  Cluster cluster(4);
  EXPECT_THROW(cluster.run([&](Communicator& comm) {
    if (comm.rank() == 2) {
      throw Error("rank 2 failed");
    }
    // Other ranks block on a barrier; the abort must wake them.
    comm.barrier();
    comm.barrier();
  }),
               Error);
}

TEST(Cluster, ClocksAdvanceWithCollectives) {
  Cluster cluster(4);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(1024, 1.0f);
    comm.all_reduce_sum(data, "reduce_phase");
  });
  for (const auto& clock : cluster.clocks()) {
    EXPECT_GT(clock.now(), 0.0);
    EXPECT_GT(clock.phase_seconds("reduce_phase"), 0.0);
  }
}

TEST(Cluster, WireBytesAccounting) {
  const std::size_t payload = 100 * sizeof(float);
  Cluster cluster(4);
  cluster.run([&](Communicator& comm) {
    const std::vector<std::vector<std::byte>> send(
        4, std::vector<std::byte>(payload, std::byte{1}));
    comm.all_to_all_v_async(send, "test").wait();
  });
  for (const auto bytes : cluster.wire_bytes_sent()) {
    // 3 peers x payload plus 3 x 8 bytes of size metadata (the self
    // chunk does not cross the wire).
    EXPECT_EQ(bytes, 3 * payload + 3 * sizeof(std::uint64_t));
  }
}

TEST(Cluster, SingleRankDegenerateCollectives) {
  Cluster cluster(1);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(4, 2.0f);
    comm.all_reduce_sum(data, "x");
    EXPECT_FLOAT_EQ(data[0], 2.0f);

    std::vector<std::vector<std::byte>> send(1);
    send[0].assign(5, std::byte{7});
    auto pending = comm.all_to_all_v_async(send, "y");
    pending.wait();
    const auto& recv = pending.recv();
    EXPECT_EQ(recv[0].size(), 5u);
  });
  EXPECT_EQ(cluster.makespan_seconds(), 0.0);
}

TEST(Cluster, ReusableAcrossRuns) {
  Cluster cluster(2);
  for (int run = 0; run < 3; ++run) {
    cluster.run([&](Communicator& comm) {
      std::vector<float> data(4, 1.0f);
      comm.all_reduce_sum(data, "x");
      EXPECT_FLOAT_EQ(data[0], 2.0f);
    });
  }
}

TEST(SimClockTest, PhaseAttributionAndSync) {
  SimClock clock;
  clock.advance("a", 1.0);
  clock.advance("b", 0.5);
  clock.advance("a", 0.25);
  EXPECT_DOUBLE_EQ(clock.now(), 1.75);
  EXPECT_DOUBLE_EQ(clock.phase_seconds("a"), 1.25);
  EXPECT_DOUBLE_EQ(clock.phase_seconds("b"), 0.5);
  EXPECT_DOUBLE_EQ(clock.phase_seconds("missing"), 0.0);

  clock.sync_to("wait", 2.0);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  EXPECT_DOUBLE_EQ(clock.phase_seconds("wait"), 0.25);
  clock.sync_to("wait", 1.0);  // backwards: no-op
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
}

}  // namespace
}  // namespace dlcomp
