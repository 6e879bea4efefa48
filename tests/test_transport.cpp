// Tests for the transport backends under the Communicator: the framed
// message codec, the real-socket TcpTransport (run as threads of this
// process -- same code path the multi-process launcher drives), the
// sim/tcp cross-backend bitwise-identity contract, and the NetworkModel
// link calibration fit.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/calibration.hpp"
#include "comm/communicator.hpp"
#include "comm/tcp_runtime.hpp"
#include "comm/tcp_transport.hpp"
#include "common/error.hpp"
#include "common/net.hpp"

namespace dlcomp {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

// ------------------------------------------------------------- framing

TEST(FrameCodec, RoundTripHeadAndBody) {
  const auto head = bytes_of("ctrl");
  const auto body = bytes_of("payload-bytes");
  std::vector<std::byte> wire;
  net::frame_append(wire, 42, head, body);
  EXPECT_EQ(wire.size(), net::kFrameHeaderBytes + head.size() + body.size());

  net::FrameDecoder decoder;
  decoder.feed(wire);
  net::Frame frame;
  ASSERT_EQ(decoder.next(frame), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.tag, 42u);
  ASSERT_EQ(frame.payload.size(), head.size() + body.size());
  EXPECT_EQ(std::memcmp(frame.payload.data(), head.data(), head.size()), 0);
  EXPECT_EQ(std::memcmp(frame.payload.data() + head.size(), body.data(),
                        body.size()),
            0);
  EXPECT_EQ(decoder.next(frame), net::FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameCodec, PartialReadsReassemble) {
  const auto body = bytes_of("trickled in one byte at a time");
  std::vector<std::byte> wire;
  net::frame_append(wire, 7, {}, body);

  net::FrameDecoder decoder;
  net::Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(std::span<const std::byte>(&wire[i], 1));
    ASSERT_EQ(decoder.next(frame), net::FrameDecoder::Status::kNeedMore)
        << "frame completed early at byte " << i;
  }
  decoder.feed(std::span<const std::byte>(&wire[wire.size() - 1], 1));
  ASSERT_EQ(decoder.next(frame), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.tag, 7u);
  EXPECT_EQ(frame.payload, body);
}

TEST(FrameCodec, BackToBackFramesInOneFeed) {
  std::vector<std::byte> wire;
  net::frame_append(wire, 1, {}, bytes_of("first"));
  net::frame_append(wire, 2, {}, bytes_of("second"));

  net::FrameDecoder decoder;
  decoder.feed(wire);
  net::Frame frame;
  ASSERT_EQ(decoder.next(frame), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.tag, 1u);
  ASSERT_EQ(decoder.next(frame), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.tag, 2u);
  EXPECT_EQ(frame.payload, bytes_of("second"));
  EXPECT_EQ(decoder.next(frame), net::FrameDecoder::Status::kNeedMore);
}

TEST(FrameCodec, BadMagicIsTerminal) {
  net::FrameDecoder decoder;
  decoder.feed(bytes_of("HTTP/1.1 200 OK\r\n"));
  net::Frame frame;
  EXPECT_EQ(decoder.next(frame), net::FrameDecoder::Status::kBadMagic);
}

TEST(FrameCodec, OversizedFrameRejected) {
  std::vector<std::byte> wire;
  net::frame_append(wire, 3, {}, std::vector<std::byte>(256));
  net::FrameDecoder decoder(/*max_frame_bytes=*/64);
  decoder.feed(wire);
  net::Frame frame;
  EXPECT_EQ(decoder.next(frame), net::FrameDecoder::Status::kTooLarge);
}

// ------------------------------------------------------- tcp transport

/// Runs `body(rank, runtime)` on `world` threads over a real localhost
/// TCP mesh, rank 0 inheriting a pre-bound ephemeral listener exactly
/// like the multi-process launcher's children do.
void run_tcp_world(int world, const NetworkModel& model,
                   const std::function<void(int, TcpRuntime&)>& body) {
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, world);
  const std::uint16_t port = net::bound_port(listen_fd);
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      TcpTransportConfig config;
      config.world = world;
      config.rank = r;
      config.port = port;
      config.inherited_listen_fd = r == 0 ? listen_fd : -1;
      TcpRuntime runtime(config, model);
      body(r, runtime);
    });
  }
  for (auto& t : threads) t.join();
}

TEST(TcpTransport, LargePayloadsRouteThroughShortWrites) {
  // 4 MiB per destination dwarfs any socket buffer, so every rank's send
  // path exercises partial nonblocking writes and every receive path
  // reassembles frames across many reads.
  constexpr int kWorld = 3;
  constexpr std::size_t kBytes = 4u << 20;
  run_tcp_world(kWorld, {}, [&](int r, TcpRuntime& runtime) {
    std::vector<std::vector<std::byte>> bufs(kWorld);
    std::vector<std::span<const std::byte>> spans(kWorld);
    for (int d = 0; d < kWorld; ++d) {
      auto& buf = bufs[static_cast<std::size_t>(d)];
      buf.resize(kBytes);
      for (std::size_t i = 0; i < kBytes; ++i) {
        buf[i] = static_cast<std::byte>((r * 31 + d * 7 + i) & 0xFF);
      }
      spans[static_cast<std::size_t>(d)] = buf;
    }
    const auto control = bytes_of("rank " + std::to_string(r));
    std::vector<std::vector<std::byte>> controls;
    std::vector<std::vector<std::byte>> recv;
    runtime.transport().exchange(control, spans, controls, recv);

    ASSERT_EQ(recv.size(), static_cast<std::size_t>(kWorld));
    for (int s = 0; s < kWorld; ++s) {
      EXPECT_EQ(controls[static_cast<std::size_t>(s)],
                bytes_of("rank " + std::to_string(s)));
      const auto& got = recv[static_cast<std::size_t>(s)];
      ASSERT_EQ(got.size(), kBytes) << "from rank " << s;
      bool ok = true;
      for (std::size_t i = 0; i < kBytes && ok; ++i) {
        ok = got[i] == static_cast<std::byte>((s * 31 + r * 7 + i) & 0xFF);
      }
      EXPECT_TRUE(ok) << "payload from rank " << s << " corrupted";
    }
    const TransportStats& stats = runtime.transport().stats();
    EXPECT_EQ(stats.exchanges, 1u);
    EXPECT_GE(stats.bytes_sent, (kWorld - 1) * kBytes);
    EXPECT_GE(stats.bytes_received, (kWorld - 1) * kBytes);
  });
}

TEST(TcpTransport, PeerDisconnectSurfacesCleanError) {
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, 2);
  const std::uint16_t port = net::bound_port(listen_fd);

  std::string error_text;
  std::thread rank0([&] {
    TcpTransportConfig config;
    config.world = 2;
    config.rank = 0;
    config.port = port;
    config.inherited_listen_fd = listen_fd;
    TcpTransport transport(config);
    std::vector<std::byte> payload(1u << 16);
    const std::vector<std::span<const std::byte>> spans = {payload, payload};
    std::vector<std::vector<std::byte>> controls;
    std::vector<std::vector<std::byte>> recv;
    try {
      transport.exchange({}, spans, controls, recv);
    } catch (const Error& e) {
      error_text = e.what();
    }
  });
  std::thread rank1([&] {
    TcpTransportConfig config;
    config.world = 2;
    config.rank = 1;
    config.port = port;
    // Rendezvous completes, then this rank dies without exchanging.
    TcpTransport transport(config);
  });
  rank0.join();
  rank1.join();
  EXPECT_NE(error_text.find("rank 1"), std::string::npos)
      << "got: " << error_text;
}

// --------------------------------------------- cross-backend identity

/// Everything one rank observes through the Communicator in the shared
/// SPMD body below. Identical contents between a Cluster (sim) run and
/// a TcpRuntime run is the backend-abstraction contract.
struct RankObservation {
  std::vector<std::vector<std::byte>> variable_recv;
  std::vector<float> reduced;
  double clock_now = 0.0;
  std::map<std::string, double> breakdown;
  std::uint64_t wire_bytes = 0;
  std::uint64_t alltoall_count = 0;
  std::uint64_t alltoall_wire_bytes = 0;
};

void collective_body(Communicator& comm, RankObservation& obs) {
  const int world = comm.world();
  const int r = comm.rank();

  comm.advance_compute("compute", 1e-4 * (r + 1));

  // Variable sizes: rank r sends (r + d + 1) * 8 bytes to rank d.
  std::vector<std::vector<std::byte>> var_send(
      static_cast<std::size_t>(world));
  for (int d = 0; d < world; ++d) {
    var_send[static_cast<std::size_t>(d)].assign(
        static_cast<std::size_t>(r + d + 1) * 8,
        static_cast<std::byte>(16 * r + d));
  }
  auto var = comm.all_to_all_v_async(var_send, "a2a_var");
  var.wait();
  obs.variable_recv = std::move(var.recv());

  obs.reduced.assign(64, static_cast<float>(r + 1) * 0.5f);
  comm.all_reduce_sum(obs.reduced, "reduce");

  comm.barrier();
  obs.clock_now = comm.clock().now();
  obs.breakdown = comm.clock().breakdown();
  obs.wire_bytes = comm.wire_bytes_sent();
  obs.alltoall_count = comm.comm_stats().alltoall_count;
  obs.alltoall_wire_bytes = comm.comm_stats().alltoall_wire_bytes;
}

TEST(TransportParity, SimAndTcpAreBitwiseIdentical) {
  constexpr int kWorld = 4;
  std::vector<RankObservation> sim(kWorld);
  std::vector<RankObservation> tcp(kWorld);

  Cluster cluster(kWorld);
  cluster.run([&](Communicator& comm) {
    collective_body(comm, sim[static_cast<std::size_t>(comm.rank())]);
  });
  run_tcp_world(kWorld, {}, [&](int r, TcpRuntime& runtime) {
    collective_body(runtime.comm(), tcp[static_cast<std::size_t>(r)]);
  });

  for (int r = 0; r < kWorld; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto& s = sim[static_cast<std::size_t>(r)];
    const auto& t = tcp[static_cast<std::size_t>(r)];
    // Payload identity: every float and byte the rank received.
    EXPECT_EQ(s.variable_recv, t.variable_recv);
    EXPECT_EQ(std::memcmp(s.reduced.data(), t.reduced.data(),
                          s.reduced.size() * sizeof(float)),
              0);
    // Simulated-number identity: clock, per-phase ledger, accounting.
    EXPECT_EQ(s.clock_now, t.clock_now);
    EXPECT_EQ(s.breakdown, t.breakdown);
    EXPECT_EQ(s.wire_bytes, t.wire_bytes);
    EXPECT_EQ(s.alltoall_count, t.alltoall_count);
    EXPECT_EQ(s.alltoall_wire_bytes, t.alltoall_wire_bytes);
  }
  // Sanity: the body really moved data and charged simulated time.
  EXPECT_GT(sim[0].clock_now, 0.0);
  EXPECT_GT(sim[0].wire_bytes, 0u);
  float expected_sum = 0.0f;
  for (int r = 0; r < kWorld; ++r) expected_sum += (r + 1) * 0.5f;
  EXPECT_FLOAT_EQ(sim[0].reduced[0], expected_sum);
}

// ---------------------------------------------------------- calibration

TEST(LinkCalibration, RecoversSyntheticParameters) {
  constexpr double kLatency = 5e-6;
  constexpr double kBandwidth = 2e9;
  std::vector<CalibrationSample> samples;
  for (const std::uint64_t bytes :
       {std::uint64_t{1} << 14, std::uint64_t{1} << 16, std::uint64_t{1} << 18,
        std::uint64_t{1} << 20}) {
    samples.push_back(
        {bytes, kLatency + static_cast<double>(bytes) / kBandwidth});
  }
  const LinkCalibration fit = fit_link_parameters(samples);
  EXPECT_NEAR(fit.latency_seconds, kLatency, kLatency * 1e-6);
  EXPECT_NEAR(fit.bandwidth_bytes_per_second, kBandwidth, kBandwidth * 1e-6);
  EXPECT_LT(fit.max_rel_error, 1e-9);

  const NetworkModel calibrated = fit.apply(NetworkModel{});
  EXPECT_NEAR(calibrated.latency_seconds, kLatency, kLatency * 1e-6);
  EXPECT_NEAR(calibrated.bandwidth_bytes_per_second, kBandwidth,
              kBandwidth * 1e-6);
  // The allreduce link models a different fabric and must be untouched.
  EXPECT_EQ(calibrated.allreduce_bandwidth_bytes_per_second,
            NetworkModel{}.allreduce_bandwidth_bytes_per_second);
}

TEST(LinkCalibration, RejectsDegenerateSamples) {
  // One sample, or one repeated size, cannot pin down a line.
  std::vector<CalibrationSample> one = {{1024, 1e-4}};
  EXPECT_THROW((void)fit_link_parameters(one), Error);
  std::vector<CalibrationSample> same = {{1024, 1e-4}, {1024, 2e-4}};
  EXPECT_THROW((void)fit_link_parameters(same), Error);
  // Time *decreasing* in bytes fits a negative bandwidth -- rejected.
  std::vector<CalibrationSample> falling = {{1024, 2e-4}, {4096, 1e-4}};
  EXPECT_THROW((void)fit_link_parameters(falling), Error);
}

}  // namespace
}  // namespace dlcomp
