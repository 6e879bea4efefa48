// Tests for the four-stage compressed all-to-all pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "compress/registry.hpp"
#include "core/compressed_alltoall.hpp"

namespace dlcomp {
namespace {

/// Builds deterministic per-(src, dst, chunk) payloads so routing is
/// verifiable: element k of chunk c from s to d equals
/// s*1000 + d*100 + c*10 + (k mod 7).
float expected_value(int s, int d, std::size_t c, std::size_t k) {
  return static_cast<float>(s * 1000 + d * 100 + static_cast<int>(c) * 10 +
                            static_cast<int>(k % 7)) *
         0.001f;
}

TEST(CompressedA2A, RawModeRoutesExactly) {
  const int world = 4;
  const std::size_t chunks = 2;
  const std::size_t elems = 96;
  Cluster cluster(world);
  cluster.run([&](Communicator& comm) {
    const int r = comm.rank();
    std::vector<std::vector<std::vector<float>>> payload(world);
    std::vector<std::vector<A2AChunkSpec>> send(world);
    for (int d = 0; d < world; ++d) {
      payload[d].resize(chunks);
      for (std::size_t c = 0; c < chunks; ++c) {
        payload[d][c].resize(elems);
        for (std::size_t k = 0; k < elems; ++k) {
          payload[d][c][k] = expected_value(r, d, c, k);
        }
        A2AChunkSpec spec;
        spec.data = payload[d][c];
        send[d].push_back(spec);
      }
    }
    std::vector<std::vector<std::vector<float>>> out(world);
    std::vector<std::vector<std::span<float>>> recv(world);
    for (int s = 0; s < world; ++s) {
      out[s].resize(chunks);
      for (std::size_t c = 0; c < chunks; ++c) {
        out[s][c].resize(elems);
        recv[s].emplace_back(out[s][c]);
      }
    }

    CompressedAllToAllConfig config;  // codec = nullptr: raw
    const CompressedAllToAll a2a(config);
    const A2AStats stats = a2a.exchange(comm, send, recv, "test");

    for (int s = 0; s < world; ++s) {
      for (std::size_t c = 0; c < chunks; ++c) {
        for (std::size_t k = 0; k < elems; ++k) {
          ASSERT_FLOAT_EQ(out[s][c][k], expected_value(s, r, c, k));
        }
      }
    }
    EXPECT_EQ(stats.send_raw_bytes, world * chunks * elems * sizeof(float));
    EXPECT_NEAR(stats.compression_ratio(), 1.0, 0.05);
  });
}

class CompressedA2ACodecs : public ::testing::TestWithParam<const char*> {};

TEST_P(CompressedA2ACodecs, ErrorBoundedRouting) {
  const Compressor& codec = get_compressor(GetParam());
  const int world = 3;
  const std::size_t elems = 64 * 16;
  const double eb = 0.01;
  Cluster cluster(world);
  ThreadPool pool(2);
  cluster.run([&](Communicator& comm) {
    const int r = comm.rank();
    Rng rng(1000 + r);
    std::vector<std::vector<float>> payload(world);
    std::vector<std::vector<A2AChunkSpec>> send(world);
    for (int d = 0; d < world; ++d) {
      payload[d].resize(elems);
      for (auto& v : payload[d]) {
        v = static_cast<float>(rng.normal(0.0, 0.2));
      }
      A2AChunkSpec spec;
      spec.data = payload[d];
      spec.params.error_bound = eb;
      spec.params.vector_dim = 16;
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
    config.codec = &codec;
    config.pool = &pool;
    const CompressedAllToAll a2a(config);
    const A2AStats stats = a2a.exchange(comm, send, recv, "test");

    // Verify each received chunk matches the *sender's* data within eb.
    // Senders are deterministic: regenerate rank s's stream.
    for (int s = 0; s < world; ++s) {
      Rng sender_rng(1000 + s);
      std::vector<float> sender_data(world * elems);
      for (auto& v : sender_data) {
        v = static_cast<float>(sender_rng.normal(0.0, 0.2));
      }
      // Chunk for dest r is the r-th block of sender s's generation.
      for (std::size_t k = 0; k < elems; ++k) {
        const float sent = sender_data[static_cast<std::size_t>(r) * elems + k];
        ASSERT_LE(std::fabs(out[s][0][k] - sent), eb * (1 + 1e-6))
            << "src " << s << " elem " << k;
      }
    }
    if (std::string(GetParam()) != "generic-lz") {
      EXPECT_GT(stats.compression_ratio(), 1.0);
    }
    EXPECT_GT(stats.compress_wall_seconds, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(Codecs, CompressedA2ACodecs,
                         ::testing::Values("huffman", "vector-lz", "hybrid",
                                           "fz-gpu-like"));

TEST(CompressedA2A, ModeledTimeCharged) {
  const int world = 2;
  Cluster cluster(world);
  const Compressor& codec = get_compressor("huffman");
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(1024, 0.5f);
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
      out[s][0].resize(1024);
      recv[s].emplace_back(out[s][0]);
    }
    CompressedAllToAllConfig config;
    config.codec = &codec;
    const CompressedAllToAll a2a(config);
    (void)a2a.exchange(comm, send, recv, "phase_x");

    EXPECT_GT(comm.clock().phase_seconds("phase_x/compress"), 0.0);
    EXPECT_GT(comm.clock().phase_seconds("phase_x/decompress"), 0.0);
    EXPECT_GT(comm.clock().phase_seconds("phase_x"), 0.0);
    EXPECT_GT(comm.clock().phase_seconds("phase_x/metadata"), 0.0);
  });
}

TEST(CompressedA2A, MismatchedChunkCountThrows) {
  Cluster cluster(2);
  EXPECT_THROW(
      cluster.run([&](Communicator& comm) {
        std::vector<float> data(64, 0.1f);
        std::vector<std::vector<A2AChunkSpec>> send(2);
        A2AChunkSpec spec;
        spec.data = data;
        send[0].push_back(spec);
        send[1].push_back(spec);

        // Receiver wrongly expects two chunks per source.
        std::vector<std::vector<std::vector<float>>> out(2);
        std::vector<std::vector<std::span<float>>> recv(2);
        for (int s = 0; s < 2; ++s) {
          out[s].resize(2);
          for (auto& o : out[s]) {
            o.resize(64);
            recv[s].emplace_back(o);
          }
        }
        const CompressedAllToAll a2a({});
        (void)a2a.exchange(comm, send, recv, "bad");
      }),
      Error);
}

TEST(CompressedA2A, RawChunkSizeMismatchOnThePoolIsAnError) {
  // Rank 0 sends 3-float chunks while both ranks expect 4. The size check
  // runs inside a pool task; it must reach the caller as an Error naming
  // the source rank, not terminate the process.
  ThreadPool pool(2);
  std::string message;
  try {
    Cluster cluster(2);
    cluster.run([&](Communicator& comm) {
      std::vector<float> data(comm.rank() == 0 ? 3 : 4, 0.5f);
      std::vector<std::vector<A2AChunkSpec>> send(2);
      for (auto& chunks : send) {
        A2AChunkSpec spec;
        spec.data = data;
        chunks.push_back(spec);
      }
      std::vector<std::vector<float>> out(2, std::vector<float>(4));
      std::vector<std::vector<std::span<float>>> recv(2);
      for (int s = 0; s < 2; ++s) recv[s].emplace_back(out[s]);

      CompressedAllToAllConfig config;  // raw
      config.pool = &pool;
      const CompressedAllToAll a2a(config);
      (void)a2a.exchange(comm, send, recv, "mismatch");
    });
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("from rank 0"), std::string::npos) << message;
  EXPECT_NE(message.find("received 12 bytes, expected 16"), std::string::npos)
      << message;
}

TEST(CompressedA2A, EmptyChunkListsSupported) {
  // Ranks owning no tables send zero chunks (world > num_tables case).
  Cluster cluster(2);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(32, 0.25f);
    std::vector<std::vector<A2AChunkSpec>> send(2);
    if (comm.rank() == 0) {
      for (int d = 0; d < 2; ++d) {
        A2AChunkSpec spec;
        spec.data = data;
        spec.params.error_bound = 0.01;
        send[d].push_back(spec);
      }
    }
    std::vector<std::vector<std::vector<float>>> out(2);
    std::vector<std::vector<std::span<float>>> recv(2);
    out[0].resize(1);
    out[0][0].resize(32);
    recv[0].emplace_back(out[0][0]);
    // Nothing expected from rank 1.

    const Compressor& codec = get_compressor("huffman");
    CompressedAllToAllConfig config;
    config.codec = &codec;
    const CompressedAllToAll a2a(config);
    (void)a2a.exchange(comm, send, recv, "sparse");
    for (std::size_t k = 0; k < 32; ++k) {
      ASSERT_NEAR(out[0][0][k], 0.25f, 0.011);
    }
  });
}

TEST(CompressedA2A, WireDeterministicAcrossPoolWidthAndStages) {
  // Chunks larger than one compression block (256 Ki elements) split
  // across the pool; the assembled wire bytes — and therefore every
  // received value — must not depend on pool width or on how the
  // exchange is stage-pipelined.
  const int world = 2;
  const std::size_t chunks = 2;
  const std::size_t elems = 300 * 1024;  // 2 blocks per chunk
  const double eb = 0.01;

  struct RunResult {
    std::vector<float> received;
    std::uint64_t wire_bytes = 0;
  };

  auto run_once = [&](std::size_t threads, std::size_t stages) {
    std::vector<RunResult> results(world);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    Cluster cluster(world);
    std::vector<CompressedAllToAll> a2a;
    for (int r = 0; r < world; ++r) {
      CompressedAllToAllConfig config;
      config.codec = &get_compressor("huffman");
      config.pool = pool.get();
      config.charge_modeled_time = false;
      config.pipeline_stages = stages;
      a2a.emplace_back(config);
    }
    cluster.run([&](Communicator& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      Rng rng(500 + rank);
      std::vector<float> payload(world * chunks * elems);
      for (auto& v : payload) v = static_cast<float>(rng.normal(0.0, 0.2));
      CompressParams params;
      params.error_bound = eb;
      params.vector_dim = 16;
      std::vector<std::vector<A2AChunkSpec>> send(world);
      for (int d = 0; d < world; ++d) {
        for (std::size_t c = 0; c < chunks; ++c) {
          const std::size_t at =
              (static_cast<std::size_t>(d) * chunks + c) * elems;
          send[static_cast<std::size_t>(d)].push_back(
              {std::span<const float>(payload).subspan(at, elems), params});
        }
      }
      RunResult& result = results[rank];
      result.received.assign(world * chunks * elems, 0.0f);
      std::vector<std::vector<std::span<float>>> recv(world);
      for (int s = 0; s < world; ++s) {
        for (std::size_t c = 0; c < chunks; ++c) {
          recv[static_cast<std::size_t>(s)].push_back(
              std::span<float>(result.received)
                  .subspan((static_cast<std::size_t>(s) * chunks + c) * elems,
                           elems));
        }
      }
      const A2AStats stats = a2a[rank].exchange(comm, send, recv, "det");
      result.wire_bytes = stats.send_wire_bytes;
    });
    return results;
  };

  const auto baseline = run_once(0, 1);  // serial pack, monolithic
  ASSERT_GT(baseline[0].wire_bytes, 0u);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t stages : {1u, 3u}) {
      const auto got = run_once(threads, stages);
      for (int r = 0; r < world; ++r) {
        EXPECT_EQ(got[r].wire_bytes, baseline[r].wire_bytes)
            << "rank " << r << " threads " << threads << " stages " << stages;
        ASSERT_EQ(std::memcmp(got[r].received.data(),
                              baseline[r].received.data(),
                              baseline[r].received.size() * sizeof(float)),
                  0)
            << "rank " << r << " threads " << threads << " stages " << stages;
      }
    }
  }
}

TEST(CompressedA2A, MultiBlockSteadyStateDoesNotAllocate) {
  // The zero-growth guarantee must hold when chunks split into blocks:
  // lane-indexed workspaces and worst-case staging reach their high-water
  // mark during warm-up and stay there.
  const int world = 2;
  const std::size_t elems = 300 * 1024;
  ThreadPool pool(2);
  Cluster cluster(world);
  std::vector<CompressedAllToAll> a2a;
  for (int r = 0; r < world; ++r) {
    CompressedAllToAllConfig config;
    config.codec = &get_compressor("huffman");
    config.pool = &pool;
    config.charge_modeled_time = false;
    config.pipeline_stages = 2;
    a2a.emplace_back(config);
  }
  auto run_rounds = [&](int rounds) {
    cluster.run([&](Communicator& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      Rng rng(900 + rank);
      std::vector<float> payload(world * elems);
      for (auto& v : payload) v = static_cast<float>(rng.normal(0.0, 0.2));
      CompressParams params;
      params.error_bound = 0.01;
      params.vector_dim = 16;
      std::vector<std::vector<A2AChunkSpec>> send(world);
      for (int d = 0; d < world; ++d) {
        send[static_cast<std::size_t>(d)].push_back(
            {std::span<const float>(payload).subspan(
                 static_cast<std::size_t>(d) * elems, elems),
             params});
      }
      std::vector<std::vector<float>> storage(world,
                                              std::vector<float>(elems));
      std::vector<std::vector<std::span<float>>> recv(world);
      for (int s = 0; s < world; ++s) {
        recv[static_cast<std::size_t>(s)].emplace_back(
            storage[static_cast<std::size_t>(s)]);
      }
      for (int round = 0; round < rounds; ++round) {
        a2a[rank].exchange(comm, send, recv, "steady");
      }
    });
  };
  run_rounds(2);  // warm-up
  std::uint64_t grow = 0;
  std::size_t capacity = 0;
  for (const auto& instance : a2a) {
    grow += instance.workspace_grow_events();
    capacity += instance.scratch_capacity_bytes();
  }
  EXPECT_GT(capacity, 0u);
  run_rounds(3);  // steady state
  std::uint64_t grow_after = 0;
  for (const auto& instance : a2a) {
    grow_after += instance.workspace_grow_events();
  }
  EXPECT_EQ(grow_after, grow)
      << "steady-state multi-block exchange allocated in the codec path";
}

}  // namespace
}  // namespace dlcomp
