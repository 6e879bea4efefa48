// Tests for the observability HTTP layer: the incremental request
// parser's edge cases (partial reads, pipelining, oversized heads,
// malformed request lines and headers), response serialization (HEAD
// semantics, keep-alive), the Prometheus text exposition (golden string
// from a fixed registry, snapshot dedup, name sanitization), and the
// live poll(2) server end-to-end through real loopback sockets --
// including /readyz gating, error statuses, pipelined keep-alive
// requests, and concurrent scrapes racing a live training run whose
// steady-state grow counters must stay zero.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_server.hpp"
#include "obs/prometheus.hpp"

namespace dlcomp {
namespace {

using Status = HttpRequestParser::Status;

// ------------------------------------------------------------------ parser

TEST(HttpParser, ParsesSimpleGet) {
  HttpRequestParser parser;
  parser.feed("GET /metrics?debug=1 HTTP/1.1\r\nHost: localhost\r\n"
              "Accept: text/plain\r\n\r\n");
  ASSERT_EQ(parser.next(), Status::kComplete);
  const HttpRequest& r = parser.request();
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.target, "/metrics");
  EXPECT_EQ(r.query, "debug=1");
  EXPECT_EQ(r.version_minor, 1);
  ASSERT_EQ(r.headers.size(), 2u);
  EXPECT_EQ(r.header("host"), "localhost");
  EXPECT_EQ(r.header("ACCEPT"), "text/plain");  // case-insensitive
  EXPECT_EQ(r.header("absent"), "");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_EQ(parser.next(), Status::kNeedMore);
}

TEST(HttpParser, PartialFeedsAccumulate) {
  HttpRequestParser parser;
  const std::string request = "GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n";
  // Byte-by-byte: every prefix must report kNeedMore, never an error.
  for (std::size_t i = 0; i + 1 < request.size(); ++i) {
    parser.feed(std::string_view(&request[i], 1));
    ASSERT_EQ(parser.next(), Status::kNeedMore) << "after byte " << i;
  }
  parser.feed(std::string_view(&request[request.size() - 1], 1));
  ASSERT_EQ(parser.next(), Status::kComplete);
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_EQ(parser.request().version_minor, 0);
}

TEST(HttpParser, PipelinedRequestsDrainOneAtATime) {
  HttpRequestParser parser;
  parser.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
              "HEAD /c HTTP/1.1\r\n\r\n");
  ASSERT_EQ(parser.next(), Status::kComplete);
  EXPECT_EQ(parser.request().target, "/a");
  EXPECT_GT(parser.buffered_bytes(), 0u);
  ASSERT_EQ(parser.next(), Status::kComplete);
  EXPECT_EQ(parser.request().target, "/b");
  ASSERT_EQ(parser.next(), Status::kComplete);
  EXPECT_EQ(parser.request().method, "HEAD");
  EXPECT_EQ(parser.request().target, "/c");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_EQ(parser.next(), Status::kNeedMore);
}

TEST(HttpParser, OversizedHeadIsRejected) {
  HttpRequestParser parser(128);
  parser.feed("GET /metrics HTTP/1.1\r\nX-Padding: ");
  parser.feed(std::string(200, 'a'));
  EXPECT_EQ(parser.next(), Status::kTooLarge);
  // kTooLarge is terminal: more bytes never resurrect the connection.
  parser.feed("\r\n\r\n");
  EXPECT_EQ(parser.next(), Status::kTooLarge);
}

TEST(HttpParser, OversizedLimitAppliesBeforeBlankLine) {
  // A request head that would be valid but only terminates after the
  // limit must still be rejected (slow-loris guard).
  HttpRequestParser parser(64);
  parser.feed("GET /" + std::string(100, 'x') + " HTTP/1.1\r\n\r\n");
  EXPECT_EQ(parser.next(), Status::kTooLarge);
}

TEST(HttpParser, MalformedRequestLines) {
  const char* bad[] = {
      "\r\n\r\n",                             // empty request line
      "GET\r\n\r\n",                          // no target
      "GET /x\r\n\r\n",                       // no version
      "GET /x HTTP/2.0\r\n\r\n",              // unsupported version
      "GET /x HTTP/1.1 extra\r\n\r\n",        // trailing junk
      "GET  /x HTTP/1.1\r\n\r\n",             // double space
      "GET x HTTP/1.1\r\n\r\n",               // target without leading '/'
      "G@T /x HTTP/1.1\r\n\r\n",              // invalid method token
      "GET /x HTTP/1.1\r\nBad Header: v\r\n\r\n",  // space in header name
      "GET /x HTTP/1.1\r\nNoColon\r\n\r\n",        // header without ':'
      "GET /x HTTP/1.1\r\nA: b\r\n folded\r\n\r\n",  // obs-fold
  };
  for (const char* text : bad) {
    HttpRequestParser parser;
    parser.feed(text);
    EXPECT_EQ(parser.next(), Status::kBadRequest) << text;
  }
}

TEST(HttpParser, BareLfLineEndingsAccepted) {
  HttpRequestParser parser;
  parser.feed("GET /status HTTP/1.1\nHost: x\n\n");
  ASSERT_EQ(parser.next(), Status::kComplete);
  EXPECT_EQ(parser.request().target, "/status");
  EXPECT_EQ(parser.request().header("host"), "x");
}

// -------------------------------------------------------------- serializer

TEST(HttpSerialize, GetAndHeadShareContentLength) {
  const HttpResponse resp = HttpResponse::text(200, "hello\n");
  const std::string get = http_serialize_response(resp, 1, true, false);
  const std::string head = http_serialize_response(resp, 1, true, true);
  EXPECT_NE(get.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(get.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(get.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(get.substr(get.size() - 6), "hello\n");
  // HEAD: identical head, no body.
  EXPECT_NE(head.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_EQ(head.find("hello"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
}

TEST(HttpSerialize, CloseAndVersionVariants) {
  const HttpResponse resp = HttpResponse::json(503, "{}");
  const std::string out = http_serialize_response(resp, 0, false, false);
  EXPECT_NE(out.find("HTTP/1.0 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(out.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(out.find("Content-Type: application/json\r\n"),
            std::string::npos);
}

// -------------------------------------------------------------- prometheus

TEST(Prometheus, MetricNameSanitization) {
  EXPECT_EQ(prometheus_metric_name("serve/latency_s"),
            "dlcomp_serve_latency_s");
  EXPECT_EQ(prometheus_metric_name("a.b-c d"), "dlcomp_a_b_c_d");
  EXPECT_EQ(prometheus_metric_name("9lives"), "dlcomp_9lives");
  EXPECT_EQ(prometheus_metric_name("x:y"), "dlcomp_x:y");
}

TEST(Prometheus, GoldenExposition) {
  MetricsRegistry registry;
  registry.counter("serve/queries_done").add(7);
  registry.counter("data/lines").add(3);
  registry.gauge("train/lr").set(0.5);
  HistogramMetric& hist =
      registry.histogram("serve/latency_s", {{0.1, 1.0}});
  hist.observe(0.05);
  hist.observe(0.5);
  hist.observe(5.0);  // overflow bucket

  const std::string expected =
      "# TYPE dlcomp_data_lines_total counter\n"
      "dlcomp_data_lines_total 3\n"
      "# TYPE dlcomp_serve_queries_done_total counter\n"
      "dlcomp_serve_queries_done_total 7\n"
      "# TYPE dlcomp_train_lr gauge\n"
      "dlcomp_train_lr 0.5\n"
      "# TYPE dlcomp_serve_latency_s histogram\n"
      "dlcomp_serve_latency_s_bucket{le=\"0.1\"} 1\n"
      "dlcomp_serve_latency_s_bucket{le=\"1\"} 2\n"
      "dlcomp_serve_latency_s_bucket{le=\"+Inf\"} 3\n"
      "dlcomp_serve_latency_s_sum 5.55\n"
      "dlcomp_serve_latency_s_count 3\n";
  EXPECT_EQ(render_prometheus(registry), expected);
}

TEST(Prometheus, SnapshotAppendsUntypedAndDedups) {
  MetricsRegistry registry;
  registry.counter("serve/queries").add(2);
  std::string out = render_prometheus(registry);

  MetricsSnapshot snap;
  snap.set("serve/queries", 99.0);  // family exists (as _total? no: gauge name)
  snap.set("serve/ratio", 3.25);
  render_prometheus_snapshot(snap, out);
  // The counter family is "dlcomp_serve_queries_total"; the snapshot key
  // sanitizes to "dlcomp_serve_queries" -- distinct family, so both
  // appear, and the ratio rides along as an untyped gauge.
  EXPECT_NE(out.find("# TYPE dlcomp_serve_queries gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("dlcomp_serve_ratio 3.25\n"), std::string::npos);

  // Re-appending the same snapshot must not duplicate families.
  const std::string before = out;
  render_prometheus_snapshot(snap, out);
  EXPECT_EQ(out, before);
}

// ------------------------------------------------------------- live server

/// Blocking loopback client: one request, reads to EOF, returns the raw
/// response (the tests close every connection explicitly).
std::string http_fetch(std::uint16_t port, const std::string& raw_request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::size_t sent = 0;
  while (sent < raw_request.size()) {
    const ssize_t n =
        ::send(fd, raw_request.data() + sent, raw_request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string get(std::uint16_t port, const std::string& path) {
  return http_fetch(port, "GET " + path +
                              " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                              "\r\n");
}

TEST(HttpServer, ServesRoutesAndErrorStatuses) {
  HttpServer server;
  server.add_route("/hello", [](const HttpRequest&) {
    return HttpResponse::text(200, "hi\n");
  });
  server.add_route("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("handler failure");
  });
  server.start();
  ASSERT_GT(server.port(), 0);

  EXPECT_NE(get(server.port(), "/hello").find("HTTP/1.1 200 OK"),
            std::string::npos);
  EXPECT_NE(get(server.port(), "/nope").find("HTTP/1.1 404 Not Found"),
            std::string::npos);
  EXPECT_NE(get(server.port(), "/boom")
                .find("HTTP/1.1 500 Internal Server Error"),
            std::string::npos);
  EXPECT_NE(http_fetch(server.port(),
                       "POST /hello HTTP/1.1\r\nConnection: close\r\n\r\n")
                .find("405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(http_fetch(server.port(),
                       "GET /hello HTTP/1.1\r\nContent-Length: 3\r\n"
                       "Connection: close\r\n\r\nabc")
                .find("411 Length Required"),
            std::string::npos);
  EXPECT_NE(http_fetch(server.port(), "BROKEN\r\n\r\n").find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(http_fetch(server.port(),
                       "GET /x HTTP/1.1\r\nBig: " + std::string(20000, 'a') +
                           "\r\n\r\n")
                .find("431 Request Header Fields Too Large"),
            std::string::npos);

  // HEAD: Content-Length without a body.
  const std::string head = http_fetch(
      server.port(), "HEAD /hello HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(head.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(head.find("hi\n"), std::string::npos);

  EXPECT_GE(server.requests_served(), 8u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, KeepAlivePipelinedRequestsOnOneConnection) {
  HttpServer server;
  std::atomic<int> calls{0};
  server.add_route("/ping", [&calls](const HttpRequest&) {
    calls.fetch_add(1);
    return HttpResponse::text(200, "pong\n");
  });
  server.start();

  // Two pipelined keep-alive requests, then one that closes.
  const std::string response = http_fetch(
      server.port(),
      "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
  std::size_t at = 0;
  int responses = 0;
  while ((at = response.find("HTTP/1.1 200 OK", at)) != std::string::npos) {
    ++responses;
    ++at;
  }
  EXPECT_EQ(responses, 3);
  EXPECT_EQ(calls.load(), 3);
  server.stop();
}

TEST(HttpServer, AbruptDisconnectDoesNotKillTheServer) {
  HttpServer server;
  server.add_route("/ok", [](const HttpRequest&) {
    return HttpResponse::text(200, "ok\n");
  });
  server.start();

  // Half a request, then a hard close; the server must keep serving.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  (void)::send(fd, "GET /ok HT", 10, 0);
  ::close(fd);

  EXPECT_NE(get(server.port(), "/ok").find("200 OK"), std::string::npos);
  server.stop();
}

TEST(HttpServer, BurstOfConnectionsAcceptedMidPollRoundAllGetServed) {
  // Regression test: connections accepted after pollfds were built used
  // to be walked against revents past the end of the pollfd vector, and
  // mid-pass swap-removal desynchronized the connection/pollfd pairing.
  // A batch of sockets connecting before any of them sends makes the
  // backlog drain in one accept_new sweep; every one must still be
  // served, with some established connections alive across the sweep.
  HttpServer server;
  server.add_route("/ok", [](const HttpRequest&) {
    return HttpResponse::text(200, "ok\n");
  });
  server.start();

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  constexpr int kClients = 12;
  int fds[kClients];
  for (int i = 0; i < kClients; ++i) {
    fds[i] = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fds[i], 0);
    ASSERT_EQ(
        ::connect(fds[i], reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
  }
  const std::string req = "GET /ok HTTP/1.1\r\nConnection: close\r\n\r\n";
  for (int i = 0; i < kClients; ++i) {
    ASSERT_EQ(::send(fds[i], req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
  }
  for (int i = 0; i < kClients; ++i) {
    std::string response;
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(fds[i], buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[i]);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
        << "client " << i << " got: " << response;
  }
  EXPECT_GE(server.requests_served(), static_cast<std::uint64_t>(kClients));
  server.stop();
}

// --------------------------------------------------- observability plane

TEST(ObservabilityServer, ReadyzTransitionsAndMetricsScrape) {
  MetricsRegistry registry;
  registry.counter("serve/queries_done").add(5);
  StatusBoard board;
  ObservabilityServer obs({}, registry, board);
  obs.start();

  EXPECT_NE(get(obs.port(), "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(get(obs.port(), "/readyz").find("503 Service Unavailable"),
            std::string::npos);
  board.set_ready(true);
  EXPECT_NE(get(obs.port(), "/readyz").find("200 OK"), std::string::npos);
  board.set_ready(false);  // drain flips it back
  EXPECT_NE(get(obs.port(), "/readyz").find("503"), std::string::npos);

  const std::string metrics = get(obs.port(), "/metrics");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE dlcomp_serve_queries_done_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("dlcomp_serve_queries_done_total 5"),
            std::string::npos);

  board.set_state("testing");
  board.heartbeat(3, 120.0);
  board.set_total_iterations(10);
  const std::string status = get(obs.port(), "/status");
  EXPECT_NE(status.find("\"state\":\"testing\""), std::string::npos);
  EXPECT_NE(status.find("\"iteration\":3"), std::string::npos);
  EXPECT_NE(status.find("\"total_iterations\":10"), std::string::npos);
  obs.stop();
}

TEST(ObservabilityServer, ConcurrentScrapesDuringTrainingStayCleanAndGrowFree) {
  // A live training run proceeds while a writer heartbeats the board and
  // scraper threads hammer every endpoint. The run's steady-state
  // all-to-all grow counters must stay zero -- scrapes read atomics, they
  // never make the hot path allocate -- and every scraped response must
  // be well-formed.
  MetricsRegistry registry;
  registry.counter("train/iterations_done");  // resolve before the race
  StatusBoard board;
  ObservabilityServer obs({}, registry, board);
  obs.start();
  const std::uint16_t port = obs.port();

  const DatasetSpec spec = DatasetSpec::small_training_proxy(6, 8);
  const SyntheticClickDataset data(spec, 5);
  TrainerConfig config;
  config.world = 2;
  config.global_batch = 64;
  config.iterations = 30;
  config.model.bottom_hidden = {16};
  config.model.top_hidden = {16};
  config.record_every = 1;
  config.eval_batches = 2;
  config.seed = 9;

  std::atomic<bool> done{false};
  std::atomic<int> bad_responses{0};
  std::atomic<int> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      const char* paths[] = {"/metrics", "/status", "/healthz"};
      while (!done.load(std::memory_order_relaxed)) {
        const std::string response = get(port, paths[t % 3]);
        scrapes.fetch_add(1);
        if (response.find("HTTP/1.1 200 OK") == std::string::npos) {
          bad_responses.fetch_add(1);
        }
      }
    });
  }

  std::thread writer([&] {
    for (std::uint64_t i = 1; !done.load(std::memory_order_relaxed); ++i) {
      board.heartbeat(i, 100.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  HybridParallelTrainer trainer(config);
  const TrainingResult result = trainer.train(data);
  done.store(true);
  writer.join();
  for (std::thread& t : scrapers) t.join();

  EXPECT_EQ(result.steady_state_grow_events, 0u);
  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_GT(board.iteration(), 0u);
  obs.stop();
}

}  // namespace
}  // namespace dlcomp
