// Tests for the four-stage compressed all-to-all pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/byte_io.hpp"
#include "common/crc32.hpp"
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

// ------------------------------------------------- distinct-row chunks

/// `rows` rows of `width` floats drawn from `pool` distinct rows with a
/// skew towards the first ones, as a batch's lookups repeat hot rows.
std::vector<float> repeated_rows(std::size_t rows, std::size_t width,
                                 std::size_t pool, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> table(pool * width);
  for (auto& v : table) v = static_cast<float>(rng.normal(0.0, 0.2));
  std::vector<float> out(rows * width);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t pick = rng.next_below(pool) * rng.next_below(pool) / pool;
    std::memcpy(out.data() + r * width, table.data() + pick * width,
                width * sizeof(float));
  }
  return out;
}

/// `rows` rows of `width` independent normal floats: no row repeats.
std::vector<float> distinct_rows(std::size_t rows, std::size_t width,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(rows * width);
  for (auto& v : out) v = static_cast<float>(rng.normal(0.0, 0.2));
  return out;
}

/// World-2 exchange of one chunk per destination through `codec` (null:
/// raw). Returns each rank's received floats, source-major, and fills
/// `stats` per rank.
std::vector<std::vector<float>> exchange_chunks(
    const Compressor* codec,
    const std::vector<std::vector<float>>& payload,  // [rank * 2 + dest]
    std::size_t width, std::vector<A2AStats>& stats) {
  const int world = 2;
  ThreadPool pool(2);
  Cluster cluster(world);
  std::vector<std::vector<float>> received(world);
  stats.assign(world, {});
  cluster.run([&](Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    std::vector<std::vector<A2AChunkSpec>> send(world);
    for (std::size_t d = 0; d < world; ++d) {
      A2AChunkSpec spec;
      spec.data = payload[r * world + d];
      spec.params.error_bound = 0.01;
      spec.params.vector_dim = width;
      spec.tag = static_cast<std::uint32_t>(d);
      send[d].push_back(spec);
    }
    std::vector<float>& out = received[r];
    out.assign(payload[r].size() * world, -1.0f);
    std::vector<std::vector<std::span<float>>> recv(world);
    for (std::size_t s = 0; s < world; ++s) {
      recv[s].push_back(std::span<float>(out).subspan(
          s * payload[r].size(), payload[s * world + r].size()));
    }
    CompressedAllToAllConfig config;
    config.codec = codec;
    config.pool = &pool;
    const CompressedAllToAll a2a(config);
    stats[r] = a2a.exchange(comm, send, recv, "rows");
  });
  return received;
}

TEST(CompressedA2A, RepeatedRawRowsTravelOnceAndLandBitwise) {
  const std::size_t width = 16;
  const std::size_t rows = 256;
  std::vector<std::vector<float>> payload;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    payload.push_back(repeated_rows(rows, width, 40, seed));
  }
  std::vector<A2AStats> stats;
  const auto received = exchange_chunks(nullptr, payload, width, stats);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t s = 0; s < 2; ++s) {
      const std::vector<float>& sent = payload[s * 2 + r];
      ASSERT_EQ(std::memcmp(received[r].data() + s * sent.size(), sent.data(),
                            sent.size() * sizeof(float)),
                0)
          << "rank " << r << " from " << s;
    }
    // At most 40 distinct rows of 256 travel, plus an 8-bit map.
    EXPECT_EQ(stats[r].send_raw_bytes, 2 * rows * width * sizeof(float));
    EXPECT_LT(stats[r].send_wire_bytes, stats[r].send_raw_bytes / 4);
  }
}

TEST(CompressedA2A, DistinctRawRowsKeepTheirPlainFraming) {
  // Rows that never repeat travel exactly as before: u32 count | u64 size
  // | the chunk's floats.
  const std::size_t width = 16;
  const std::size_t rows = 64;
  std::vector<std::vector<float>> payload;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    payload.push_back(distinct_rows(rows, width, seed));
  }
  std::vector<A2AStats> stats;
  (void)exchange_chunks(nullptr, payload, width, stats);
  for (std::size_t r = 0; r < 2; ++r) {
    const std::vector<float>& to_peer = payload[r * 2 + (1 - r)];
    std::vector<std::byte> expected;
    append_pod(expected, std::uint32_t{1});
    append_pod(expected, static_cast<std::uint64_t>(rows * width * 4));
    append_pod_span(expected, std::span<const float>(to_peer));
    EXPECT_EQ(stats[r].wire_crc32, crc32(expected)) << "rank " << r;
    EXPECT_EQ(stats[r].send_wire_bytes,
              2 * (sizeof(std::uint32_t) + sizeof(std::uint64_t)) +
                  stats[r].send_raw_bytes);
  }
}

TEST(CompressedA2A, ElementwiseCodecsReconstructRepeatedRowsAsBefore) {
  // A codec that quantizes element by element decodes a repeated row to
  // the same floats whether it was sent or expanded, so the receiver sees
  // exactly the whole chunk's round trip. cusz-like predicts across rows
  // and is held only to its bound.
  const std::size_t width = 16;
  const std::size_t rows = 256;
  std::vector<std::vector<float>> payload;
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    payload.push_back(repeated_rows(rows, width, 40, seed));
  }
  CompressParams params;
  params.error_bound = 0.01;
  params.vector_dim = width;
  for (const std::string_view name : all_compressor_names()) {
    SCOPED_TRACE(std::string(name));
    const Compressor& codec = get_compressor(name);
    std::vector<A2AStats> stats;
    const auto received = exchange_chunks(&codec, payload, width, stats);
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t s = 0; s < 2; ++s) {
        const std::vector<float>& sent = payload[s * 2 + r];
        const std::span<const float> got(received[r].data() + s * sent.size(),
                                         sent.size());
        if (name == "cusz-like") {
          for (std::size_t k = 0; k < sent.size(); ++k) {
            ASSERT_LE(std::fabs(got[k] - sent[k]), 0.01 * (1 + 1e-6)) << k;
          }
          continue;
        }
        std::vector<std::byte> stream;
        (void)codec.compress(sent, params, stream);
        std::vector<float> whole(sent.size());
        (void)codec.decompress(stream, whole);
        ASSERT_EQ(std::memcmp(got.data(), whole.data(),
                              whole.size() * sizeof(float)),
                  0)
            << "rank " << r << " from " << s;
      }
    }
  }
}

TEST(CompressedA2A, RepeatedRowsSteadyStateDoesNotAllocate) {
  // The distinct count changes every round; the dedup scratch is sized by
  // the chunk's shape, so it must not grow after warm-up.
  const std::size_t width = 16;
  const std::size_t rows = 512;
  for (const char* name : {"", "hybrid"}) {
    SCOPED_TRACE(name);
    const Compressor* codec =
        std::string_view(name).empty() ? nullptr : &get_compressor(name);
    ThreadPool pool(2);
    Cluster cluster(2);
    std::vector<CompressedAllToAll> a2a;
    for (int r = 0; r < 2; ++r) {
      CompressedAllToAllConfig config;
      config.codec = codec;
      config.pool = &pool;
      a2a.emplace_back(config);
    }
    std::uint64_t warm = 0;
    for (std::uint64_t round = 0; round < 8; ++round) {
      if (round == 2) {
        for (const auto& x : a2a) warm += x.workspace_grow_events();
      }
      cluster.run([&](Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        // Round 0 repeats the most; later rounds draw from larger pools.
        std::vector<std::vector<float>> payload;
        std::vector<std::vector<A2AChunkSpec>> send(2);
        for (std::size_t d = 0; d < 2; ++d) {
          payload.push_back(
              repeated_rows(rows, width, 8 + 60 * round, round * 4 + r * 2 + d));
        }
        for (std::size_t d = 0; d < 2; ++d) {
          A2AChunkSpec spec;
          spec.data = payload[d];
          spec.params.vector_dim = width;
          send[d].push_back(spec);
        }
        std::vector<std::vector<float>> out(2, std::vector<float>(rows * width));
        std::vector<std::vector<std::span<float>>> recv(2);
        for (std::size_t s = 0; s < 2; ++s) recv[s].emplace_back(out[s]);
        (void)a2a[r].exchange(comm, send, recv, "steady");
      });
    }
    std::uint64_t after = 0;
    for (const auto& x : a2a) after += x.workspace_grow_events();
    EXPECT_EQ(after, warm);
  }
}

// -------------------------------------------------- hostile framing

TEST(CompressedA2ADirectory, SizesThatWouldWrapAreRejected) {
  // Sizes {2^64 - 8, P + 8} add up to P modulo 2^64; so do three sizes
  // without the form flag. Each size must fit the bytes left on its own.
  const std::size_t payload = 40;
  for (const std::vector<std::uint64_t>& sizes :
       {std::vector<std::uint64_t>{~std::uint64_t{0} - 7, payload + 8},
        std::vector<std::uint64_t>{(std::uint64_t{1} << 63) - 8,
                                   (std::uint64_t{1} << 63) - 8,
                                   payload + 16}}) {
    std::vector<std::byte> buffer;
    append_pod(buffer, static_cast<std::uint32_t>(sizes.size()));
    for (const auto size : sizes) append_pod(buffer, size);
    buffer.resize(buffer.size() + payload);
    std::vector<detail::A2AChunkEntry> entries;
    try {
      (void)detail::parse_chunk_directory(buffer, 3, 0, sizes.size(),
                                          sizes.size(), true, entries);
      ADD_FAILURE() << "wrapping directory accepted";
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("chunk 0 from rank 3"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CompressedA2ADirectory, TruncationAtEveryLengthIsAFormatError) {
  std::vector<std::byte> buffer;
  append_pod(buffer, std::uint32_t{2});
  append_pod(buffer, std::uint64_t{12});
  append_pod(buffer, std::uint64_t{20} | detail::kDistinctRowsFlag);
  buffer.resize(buffer.size() + 32);
  std::vector<detail::A2AChunkEntry> entries;
  const auto payload =
      detail::parse_chunk_directory(buffer, 1, 0, 2, 2, true, entries);
  ASSERT_EQ(payload.size(), 32u);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].distinct_rows);
  EXPECT_TRUE(entries[1].distinct_rows);
  EXPECT_EQ(entries[1].offset, 12u);
  EXPECT_EQ(entries[1].size, 20u);
  for (std::size_t len = 0; len < buffer.size(); ++len) {
    EXPECT_THROW((void)detail::parse_chunk_directory(
                     std::span<const std::byte>(buffer).first(len), 1, 0, 2,
                     2, true, entries),
                 FormatError)
        << len;
  }
}

/// Rank 1 sends `stream` to rank 0 as its only chunk, flagged as a
/// distinct-row chunk, while rank 0 expects `floats` floats from it and
/// runs the exchange through `codec`. Returns rank 0's FormatError text
/// ("" when the exchange succeeded).
std::string land_crafted(std::span<const std::byte> stream, std::size_t floats,
                         const Compressor* codec) {
  ThreadPool pool(2);
  Cluster cluster(2);
  std::string message;
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(floats, 0.25f);
    if (comm.rank() == 1) {
      std::vector<std::vector<std::byte>> buffers(2);
      append_pod(buffers[0], std::uint32_t{1});
      append_pod(buffers[0], static_cast<std::uint64_t>(stream.size()) |
                                 detail::kDistinctRowsFlag);
      buffers[0].insert(buffers[0].end(), stream.begin(), stream.end());
      comm.all_to_all_v_async(buffers, "hostile").wait();
      return;
    }
    std::vector<std::vector<A2AChunkSpec>> send(2);
    for (auto& chunks : send) {
      A2AChunkSpec spec;
      spec.data = data;
      spec.params.vector_dim = floats;  // one row: never in distinct form
      chunks.push_back(spec);
    }
    std::vector<std::vector<float>> out(2, std::vector<float>(floats));
    std::vector<std::vector<std::span<float>>> recv(2);
    for (int s = 0; s < 2; ++s) recv[s].emplace_back(out[s]);
    CompressedAllToAllConfig config;
    config.codec = codec;
    config.pool = &pool;
    const CompressedAllToAll a2a(config);
    try {
      (void)a2a.exchange(comm, send, recv, "hostile");
    } catch (const FormatError& e) {
      message = e.what();
    }
  });
  return message;
}

/// A distinct-row stream for 4 rows of width 2 (rows A, B, A, A): u32
/// width | u32 distinct | map | rows.
std::vector<std::byte> distinct_row_stream(std::uint32_t width,
                                           std::uint32_t distinct,
                                           std::span<const std::byte> map,
                                           std::span<const std::byte> rows) {
  std::vector<std::byte> out;
  append_pod(out, width);
  append_pod(out, distinct);
  out.insert(out.end(), map.begin(), map.end());
  out.insert(out.end(), rows.begin(), rows.end());
  return out;
}

constexpr std::byte kMapABAA{0x02};  // 1-bit entries 0, 1, 0, 0

TEST(CompressedA2AHostile, WellFormedCraftedChunkLands) {
  const std::vector<float> rows = {1.0f, 2.0f, 3.0f, 4.0f};
  const auto stream = distinct_row_stream(
      2, 2, std::span(&kMapABAA, 1), std::as_bytes(std::span(rows)));
  EXPECT_EQ(land_crafted(stream, 8, nullptr), "");
}

TEST(CompressedA2AHostile, TruncationAtEveryLengthNamesTheChunk) {
  const std::vector<float> rows = {1.0f, 2.0f, 3.0f, 4.0f};
  const auto raw = distinct_row_stream(2, 2, std::span(&kMapABAA, 1),
                                       std::as_bytes(std::span(rows)));
  const Compressor& hybrid = get_compressor("hybrid");
  CompressParams params;
  params.vector_dim = 2;
  std::vector<std::byte> coded_rows;
  (void)hybrid.compress(rows, params, coded_rows);
  const auto coded =
      distinct_row_stream(2, 2, std::span(&kMapABAA, 1), coded_rows);
  for (const auto& [stream, codec] :
       {std::pair{raw, (const Compressor*)nullptr}, std::pair{coded, &hybrid}}) {
    ASSERT_EQ(land_crafted(stream, 8, codec), "");
    for (std::size_t len = 0; len < stream.size(); ++len) {
      const std::string message =
          land_crafted(std::span(stream).first(len), 8, codec);
      EXPECT_NE(message.find("chunk 0 from rank 1"), std::string::npos)
          << "length " << len << ": " << message;
    }
  }
}

TEST(CompressedA2AHostile, BadCountsMapsAndWidthsNameTheChunk) {
  const std::vector<float> two = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> three = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  const auto two_rows = std::as_bytes(std::span(two));
  const std::byte map4{0xE4};  // 2-bit entries 0, 1, 2, 3
  const std::byte map_skip{0x08};  // 2-bit entries 0, 2, 0, 0
  const struct {
    const char* what;
    std::vector<std::byte> stream;
    const char* expect;
  } cases[] = {
      {"distinct 0", distinct_row_stream(2, 0, {}, {}), "distinct count 0"},
      {"distinct = rows",
       distinct_row_stream(2, 4, std::span(&map4, 1),
                           std::as_bytes(std::span(three))),
       "distinct count 4"},
      {"distinct > rows", distinct_row_stream(2, 9, std::span(&map4, 1), {}),
       "distinct count 9"},
      {"entry >= distinct",
       distinct_row_stream(2, 3, std::span(&map4, 1),
                           std::as_bytes(std::span(three))),
       "not below the distinct count 3"},
      {"entry out of first-seen order",
       distinct_row_stream(2, 3, std::span(&map_skip, 1),
                           std::as_bytes(std::span(three))),
       "skips first-seen index 1"},
      {"width does not divide the span",
       distinct_row_stream(3, 2, std::span(&kMapABAA, 1), two_rows),
       "row width 3 does not divide the 8-float receive span"},
      {"width 0", distinct_row_stream(0, 2, std::span(&kMapABAA, 1), two_rows),
       "row width 0"},
      {"flag on a chunk shorter than the header",
       std::vector<std::byte>(5, std::byte{1}), "shorter than its 8-byte header"},
      {"rows bytes short",
       distinct_row_stream(2, 2, std::span(&kMapABAA, 1),
                           two_rows.first(12)),
       "received 12 bytes, expected 16"},
  };
  for (const auto& c : cases) {
    const std::string message = land_crafted(c.stream, 8, nullptr);
    EXPECT_NE(message.find("chunk 0 from rank 1"), std::string::npos)
        << c.what << ": " << message;
    EXPECT_NE(message.find(c.expect), std::string::npos)
        << c.what << ": " << message;
  }
}

}  // namespace
}  // namespace dlcomp
