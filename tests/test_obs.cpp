// Tests for the observability subsystem: the shared nearest-rank
// percentile rule, histogram metrics and the registry/snapshot flow, the
// SimClock metrics export, and the span tracer -- nesting and thread
// interleaving round-tripped through the Chrome-trace JSON exporter (via
// a minimal JSON parser below), zero steady-state ring allocations, the
// disabled-tracer no-op, and the headline fidelity invariant: sim-timeline
// slice sums in the exported trace equal the SimClock ledger sums exactly,
// hidden async slices included, on a world-8 pipelined overlap exchange.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "common/latency_recorder.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compress/registry.hpp"
#include "core/compressed_alltoall.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/sim_clock.hpp"
#include "parallel/thread_pool.hpp"

namespace dlcomp {
namespace {

// ------------------------------------------------------------ nearest_rank

TEST(NearestRank, EpsilonAndClamping) {
  EXPECT_EQ(nearest_rank(0, 50.0), 0u);
  // Exact boundary: p50 of 10 samples is rank 5, not 6 (the PR 1 epsilon).
  EXPECT_EQ(nearest_rank(10, 50.0), 5u);
  EXPECT_EQ(nearest_rank(10, 95.0), 10u);
  EXPECT_EQ(nearest_rank(4, 75.0), 3u);
  EXPECT_EQ(nearest_rank(100, 99.0), 99u);
  EXPECT_EQ(nearest_rank(100, 99.9), 100u);
  // Clamping at both ends.
  EXPECT_EQ(nearest_rank(5, 0.0), 1u);
  EXPECT_EQ(nearest_rank(5, 100.0), 5u);
  EXPECT_EQ(nearest_rank(5, -10.0), 1u);
  EXPECT_EQ(nearest_rank(5, 200.0), 5u);
}

TEST(NearestRank, AgreesWithPercentileSorted) {
  std::vector<float> sorted;
  for (int i = 1; i <= 20; ++i) sorted.push_back(static_cast<float>(i));
  for (const double q : {0.0, 5.0, 10.0, 37.5, 50.0, 90.0, 99.0, 100.0}) {
    const std::size_t rank = nearest_rank(sorted.size(), q);
    ASSERT_GE(rank, 1u);
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, q),
                     static_cast<double>(sorted[rank - 1]))
        << "q=" << q;
  }
}

// --------------------------------------------------------------- histogram

TEST(HistogramMetric, BasicStatsAndOverflowBucket) {
  HistogramMetric hist(HistogramBuckets::linear(0.0, 10.0, 10));
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.quantile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);

  hist.observe(0.5);
  hist.observe(2.5);
  hist.observe(99.0);  // beyond the last bound: overflow bucket
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 102.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 34.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.5);
  EXPECT_DOUBLE_EQ(hist.max(), 99.0);

  const auto counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), hist.upper_bounds().size() + 1);
  EXPECT_EQ(counts.front(), 1u);  // 0.5 in [0, 1)
  EXPECT_EQ(counts.back(), 1u);   // 99 in overflow
  // The overflow bucket has no finite bound; its estimate is the max.
  EXPECT_DOUBLE_EQ(hist.quantile(100.0), 99.0);
}

TEST(HistogramMetric, QuantilePicksTheExactRanksBucket) {
  // One sample strictly inside each bucket: the histogram quantile must
  // return the upper bound of exactly the bucket holding the sample the
  // exact nearest-rank rule picks.
  HistogramMetric hist(HistogramBuckets::linear(0.0, 100.0, 50));
  std::vector<float> samples;
  Rng rng(11);
  for (std::size_t i = 0; i < 200; ++i) {
    samples.push_back(static_cast<float>(rng.uniform(0.0, 99.9)));
  }
  for (const float s : samples) hist.observe(s);
  std::sort(samples.begin(), samples.end());

  const auto& bounds = hist.upper_bounds();
  for (const double q : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const double exact = percentile_sorted(samples, q);
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), exact);
    ASSERT_NE(it, bounds.end());
    // quantile() clamps its bucket-bound estimate to the observed range.
    EXPECT_DOUBLE_EQ(hist.quantile(q), std::clamp(*it, hist.min(), hist.max()))
        << "q=" << q;
    // And the estimate never undershoots the exact value by more than
    // nothing, or overshoots by more than one bucket width.
    EXPECT_GE(hist.quantile(q), exact);
    EXPECT_LE(hist.quantile(q) - exact, 2.0);
  }
}

TEST(HistogramMetric, DegenerateDistributionIsExact) {
  // All samples equal: clamping to [min, max] makes every quantile exact
  // regardless of the bucket layout.
  HistogramMetric hist(HistogramBuckets::exponential(1e-6, 2.0, 20));
  for (int i = 0; i < 37; ++i) hist.observe(0.125);
  for (const double q : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(hist.quantile(q), 0.125) << "q=" << q;
  }
}

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, InstrumentsAreStableAndSnapshotFlattens) {
  MetricsRegistry registry;
  Counter& c = registry.counter("events");
  c.add();
  c.add(41);
  EXPECT_EQ(&c, &registry.counter("events"));  // same instrument back
  EXPECT_EQ(registry.counter("events").value(), 42u);

  registry.gauge("depth").set(7.5);
  HistogramMetric& h =
      registry.histogram("lat", HistogramBuckets::linear(0.0, 1.0, 4));
  h.observe(0.3);
  EXPECT_EQ(&h, &registry.histogram("lat", HistogramBuckets::linear(0.0, 1.0, 4)));

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("events"), 42.0);
  EXPECT_DOUBLE_EQ(snap.value("depth"), 7.5);
  EXPECT_DOUBLE_EQ(snap.value("lat/count"), 1.0);
  EXPECT_TRUE(snap.has("lat/p50"));
  EXPECT_TRUE(snap.has("lat/p999"));
  EXPECT_FALSE(snap.has("lat/p12"));
  EXPECT_DOUBLE_EQ(snap.value("missing", -1.0), -1.0);

  // to_text: one sorted "name value" line per key.
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("events 42\n"), std::string::npos);
  EXPECT_LT(text.find("depth"), text.find("events"));
}

TEST(SimClock, ExportToPublishesBothLedgers) {
  SimClock clock;
  clock.advance("compute", 2.0);
  clock.advance("comm", 0.5);
  clock.record_hidden("comm", 0.25);

  MetricsSnapshot snap;
  clock.export_to(snap, "sim/");
  EXPECT_DOUBLE_EQ(snap.value("sim/compute"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("sim/comm"), 0.5);
  EXPECT_DOUBLE_EQ(snap.value("sim/hidden/comm"), 0.25);
  EXPECT_DOUBLE_EQ(snap.value("sim/makespan"), clock.now());
  EXPECT_DOUBLE_EQ(snap.value("sim/makespan"), 2.5);
}

TEST(LatencyRecorder, HistogramMatchesRecorder) {
  LatencyRecorder recorder;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    recorder.record(std::exp(rng.normal(-7.0, 1.0)));  // ~0.1..10 ms
  }
  HistogramMetric hist(LatencyRecorder::default_buckets());
  for (const float s : recorder.samples()) hist.observe(s);

  const LatencySummary summary = recorder.summary();
  EXPECT_EQ(hist.count(), recorder.count());
  // The recorder keeps its samples as float but sums in double, so the
  // replayed histogram agrees only to float precision.
  EXPECT_NEAR(hist.mean(), summary.mean_s, 1e-7 * summary.mean_s);
  EXPECT_NEAR(hist.max(), summary.max_s, 1e-7 * summary.max_s);
  // Same rank rule, bucket resolution: the estimate brackets the exact
  // percentile within one x2 bucket.
  EXPECT_GE(hist.quantile(50.0), summary.p50_s);
  EXPECT_LE(hist.quantile(50.0), summary.p50_s * 2.0);
  EXPECT_GE(hist.quantile(99.0), summary.p99_s);
  EXPECT_LE(hist.quantile(99.0), summary.p99_s * 2.0);
}

TEST(LatencyRecorder, SnapshotWritesExactPercentiles) {
  // 1..100 ms: nearest-rank p50 is the 50th sample, p95 the 95th. Every
  // x2 histogram bucket spanning them is wider than one sample, so a
  // bucket bound would miss both.
  LatencyRecorder recorder;
  for (int i = 100; i >= 1; --i) recorder.record(i * 1e-3);
  MetricsSnapshot snap;
  recorder.snapshot_to(snap, "run/lat_s");
  EXPECT_DOUBLE_EQ(snap.value("run/lat_s/count"), 100.0);
  EXPECT_FLOAT_EQ(static_cast<float>(snap.value("run/lat_s/p50")), 50e-3f);
  EXPECT_FLOAT_EQ(static_cast<float>(snap.value("run/lat_s/p95")), 95e-3f);
  EXPECT_FLOAT_EQ(static_cast<float>(snap.value("run/lat_s/p99")), 99e-3f);
  EXPECT_DOUBLE_EQ(snap.value("run/lat_s/min"), 1e-3);
  EXPECT_DOUBLE_EQ(snap.value("run/lat_s/max"), 100e-3);
  EXPECT_NEAR(snap.value("run/lat_s/mean"), 50.5e-3, 1e-12);

  HistogramMetric hist(LatencyRecorder::default_buckets());
  for (const float s : recorder.samples()) hist.observe(s);
  EXPECT_NE(hist.quantile(50.0), snap.value("run/lat_s/p50"));
  EXPECT_NE(hist.quantile(95.0), snap.value("run/lat_s/p95"));
}

// ------------------------------------------------- minimal JSON parser

/// Just enough JSON to round-trip the exporter's output: objects, arrays,
/// strings with the exporter's escapes, and numbers. Throws on anything
/// malformed, which fails the test.
struct Json {
  enum class Kind { kNull, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return object.find(key) != object.end();
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing JSON");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  std::string string_lit() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: throw std::runtime_error("unsupported escape");
        }
      } else {
        out += c;
      }
    }
    ++pos_;  // closing quote
    return out;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    Json v;
    if (c == '{') {
      v.kind = Json::Kind::kObject;
      ++pos_;
      skip_ws();
      if (peek() == '}') { ++pos_; return v; }
      while (true) {
        skip_ws();
        std::string key = string_lit();
        skip_ws();
        expect(':');
        v.object.emplace(std::move(key), value());
        skip_ws();
        if (peek() == ',') { ++pos_; continue; }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.kind = Json::Kind::kArray;
      ++pos_;
      skip_ws();
      if (peek() == ']') { ++pos_; return v; }
      while (true) {
        v.array.push_back(value());
        skip_ws();
        if (peek() == ',') { ++pos_; continue; }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = Json::Kind::kString;
      v.str = string_lit();
      return v;
    }
    // Number.
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    v.kind = Json::Kind::kNumber;
    v.number = std::strtod(start, &end);
    if (end == start) throw std::runtime_error("bad number");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

Json export_and_parse() {
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  return JsonParser(out.str()).parse();
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, DisabledRecordingIsANoOp) {
  Tracer& tracer = Tracer::instance();
  tracer.enable(1 << 10);
  tracer.disable();
  EXPECT_FALSE(trace_enabled());
  {
    DLCOMP_TRACE_SPAN("noop/span");
    DLCOMP_TRACE_INSTANT("noop/instant");
    DLCOMP_TRACE_COUNTER("noop/counter", 1.0);
  }
  // Nothing registered a ring, nothing was recorded.
  EXPECT_TRUE(tracer.collect().empty());
  EXPECT_EQ(tracer.buffer_grow_events(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(Tracer, SpanNestingAndThreadsRoundTripThroughJson) {
  Tracer& tracer = Tracer::instance();
  tracer.enable(1 << 12);
  {
    DLCOMP_TRACE_SPAN("main/outer");
    {
      DLCOMP_TRACE_SPAN("main/inner");
      DLCOMP_TRACE_INSTANT("main/instant");
    }
    DLCOMP_TRACE_COUNTER("main/queue_depth", 42.0);
  }
  std::thread worker([] {
    trace_bind_thread_rank(7);
    DLCOMP_TRACE_SPAN("worker/outer");
    DLCOMP_TRACE_SPAN("worker/inner");
  });
  worker.join();
  tracer.disable();

  const Json root = export_and_parse();
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Kind::kArray);

  // Per-(pid, tid) stack discipline for B/E events, in array order (the
  // exporter preserves each ring's chronological order).
  std::map<std::pair<int, int>, std::vector<std::string>> stacks;
  std::map<std::pair<int, int>, double> last_ts;
  bool saw_instant = false;
  bool saw_counter = false;
  std::vector<std::string> thread_labels;
  for (const Json& ev : events.array) {
    const std::string& ph = ev.at("ph").str;
    if (ph == "M") {
      if (ev.at("name").str == "thread_name") {
        thread_labels.push_back(ev.at("args").at("name").str);
      }
      continue;
    }
    const auto key = std::make_pair(static_cast<int>(ev.at("pid").number),
                                    static_cast<int>(ev.at("tid").number));
    const double ts = ev.at("ts").number;
    EXPECT_GE(ts, 0.0);
    if (last_ts.count(key) != 0) EXPECT_GE(ts, last_ts[key]);
    last_ts[key] = ts;
    if (ph == "B") {
      stacks[key].push_back(ev.at("name").str);
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[key].empty());
      EXPECT_EQ(stacks[key].back(), ev.at("name").str);
      stacks[key].pop_back();
    } else if (ph == "i") {
      EXPECT_EQ(ev.at("name").str, "main/instant");
      // The instant lands inside main/outer + main/inner.
      EXPECT_EQ(stacks[key].size(), 2u);
      saw_instant = true;
    } else if (ph == "C") {
      EXPECT_EQ(ev.at("name").str, "main/queue_depth");
      EXPECT_DOUBLE_EQ(ev.at("args").at("value").number, 42.0);
      saw_counter = true;
    }
  }
  for (const auto& [key, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << key.second;
  }
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
  // The rank-bound worker's wall track is labeled by its rank.
  EXPECT_NE(std::find(thread_labels.begin(), thread_labels.end(), "rank 7"),
            thread_labels.end());
}

TEST(Tracer, SteadyStateRecordingNeverAllocates) {
  Tracer& tracer = Tracer::instance();
  tracer.enable(256);
  EXPECT_EQ(tracer.ring_capacity(), 256u);
  { DLCOMP_TRACE_SPAN("steady/warmup"); }
  EXPECT_EQ(tracer.buffer_grow_events(), 1u);  // this thread's ring

  // Record far more events than the ring holds: the ring wraps (dropping
  // the oldest) instead of growing.
  for (int i = 0; i < 5000; ++i) {
    DLCOMP_TRACE_SPAN("steady/span");
  }
  EXPECT_EQ(tracer.buffer_grow_events(), 1u);
  EXPECT_GT(tracer.dropped_events(), 0u);

  std::thread other([] {
    for (int i = 0; i < 100; ++i) {
      DLCOMP_TRACE_SPAN("steady/other");
    }
  });
  other.join();
  EXPECT_EQ(tracer.buffer_grow_events(), 2u);  // one ring per thread, once

  for (const auto& t : tracer.collect()) {
    EXPECT_LE(t.events.size(), 256u);
  }
  tracer.disable();
}

// ------------------------------------------- trace <-> SimClock fidelity

/// Sums the exported sim-timeline slices per (rank, phase) and the hidden
/// async slices per (rank, name), in seconds.
struct SimTraceSums {
  std::map<int, std::map<std::string, double>> exposed;
  std::map<int, std::map<std::string, double>> hidden;
};

SimTraceSums sum_sim_events(const Json& root) {
  SimTraceSums sums;
  std::map<std::uint64_t, std::pair<std::string, double>> open_async;
  for (const Json& ev : root.at("traceEvents").array) {
    const std::string& ph = ev.at("ph").str;
    if (ph == "X") {
      EXPECT_EQ(static_cast<int>(ev.at("pid").number), 1);
      const int rank = static_cast<int>(ev.at("tid").number);
      sums.exposed[rank][ev.at("name").str] += ev.at("dur").number / 1e6;
    } else if (ph == "b") {
      EXPECT_EQ(ev.at("cat").str, "hidden");
      const auto id = static_cast<std::uint64_t>(ev.at("id").number);
      open_async[id] = {ev.at("name").str, ev.at("ts").number};
    } else if (ph == "e") {
      const auto id = static_cast<std::uint64_t>(ev.at("id").number);
      const auto it = open_async.find(id);
      if (it == open_async.end()) {
        ADD_FAILURE() << "async end without begin, id " << id;
        continue;
      }
      const int rank = static_cast<int>(ev.at("tid").number);
      sums.hidden[rank][it->second.first] +=
          (ev.at("ts").number - it->second.second) / 1e6;
      open_async.erase(it);
    }
  }
  EXPECT_TRUE(open_async.empty()) << "async begin without end";
  return sums;
}

void expect_trace_matches_ledgers(const SimTraceSums& sums,
                                  const std::vector<SimClock>& clocks) {
  for (std::size_t r = 0; r < clocks.size(); ++r) {
    const auto rank = static_cast<int>(r);
    const std::map<std::string, double> ledger = clocks[r].breakdown();
    const auto exposed_it = sums.exposed.find(rank);
    ASSERT_NE(exposed_it, sums.exposed.end()) << "no slices for rank " << r;
    EXPECT_EQ(exposed_it->second.size(), ledger.size());
    double traced_total = 0.0;
    for (const auto& [phase, seconds] : ledger) {
      const auto it = exposed_it->second.find(phase);
      ASSERT_NE(it, exposed_it->second.end()) << "missing phase " << phase;
      EXPECT_NEAR(it->second, seconds, 1e-9) << "rank " << r << " " << phase;
      traced_total += it->second;
    }
    // Exposed slices tile the rank's timeline: they sum to now().
    EXPECT_NEAR(traced_total, clocks[r].now(), 1e-9);

    const std::map<std::string, double> hidden = clocks[r].hidden_breakdown();
    const auto hidden_it = sums.hidden.find(rank);
    if (hidden_it == sums.hidden.end()) {
      EXPECT_TRUE(hidden.empty());
      continue;
    }
    EXPECT_EQ(hidden_it->second.size(), hidden.size());
    for (const auto& [phase, seconds] : hidden) {
      const auto it = hidden_it->second.find(phase);
      ASSERT_NE(it, hidden_it->second.end())
          << "missing hidden phase " << phase;
      EXPECT_NEAR(it->second, seconds, 1e-9) << "rank " << r << " " << phase;
    }
  }
}

TEST(Tracer, PipelinedExchangeTraceSumsEqualClockLedgers) {
  constexpr int kWorld = 8;
  constexpr std::size_t kChunksPerDest = 4;
  Rng rng(23);
  std::vector<float> input(1 << 15);
  for (auto& v : input) v = static_cast<float>(rng.normal(0.0, 0.2));
  const std::size_t chunk_elems = input.size() / (kWorld * kChunksPerDest);

  ThreadPool pool(4);
  Tracer& tracer = Tracer::instance();
  tracer.enable();  // default capacity: ample, so nothing drops

  Cluster cluster(kWorld);
  cluster.run([&](Communicator& comm) {
    CompressedAllToAllConfig config;
    config.codec = &get_compressor("hybrid");
    config.pool = &pool;
    config.pipeline_stages = 4;  // compress-while-sending: hidden comm
    const CompressedAllToAll a2a(config);

    CompressParams params;
    params.error_bound = 0.01;
    params.vector_dim = 32;
    std::vector<std::vector<A2AChunkSpec>> send(kWorld);
    for (int d = 0; d < kWorld; ++d) {
      for (std::size_t c = 0; c < kChunksPerDest; ++c) {
        const std::size_t offset =
            (static_cast<std::size_t>(d) * kChunksPerDest + c) * chunk_elems;
        send[static_cast<std::size_t>(d)].push_back(
            {std::span<const float>(input).subspan(offset, chunk_elems),
             params});
      }
    }
    std::vector<std::vector<float>> recv_storage(
        kWorld * kChunksPerDest, std::vector<float>(chunk_elems));
    std::vector<std::vector<std::span<float>>> recv(kWorld);
    for (int s = 0; s < kWorld; ++s) {
      for (std::size_t c = 0; c < kChunksPerDest; ++c) {
        recv[static_cast<std::size_t>(s)].push_back(
            recv_storage[static_cast<std::size_t>(s) * kChunksPerDest + c]);
      }
    }
    (void)a2a.exchange(comm, send, recv, "alltoall");
  });
  tracer.disable();
  ASSERT_EQ(tracer.dropped_events(), 0u);

  // The pipelined exchange must actually have hidden something, or the
  // fidelity check below would be vacuous for the async path.
  double total_hidden = 0.0;
  for (const SimClock& clock : cluster.clocks()) {
    for (const auto& [phase, seconds] : clock.hidden_breakdown()) {
      total_hidden += seconds;
    }
  }
  EXPECT_GT(total_hidden, 0.0);

  expect_trace_matches_ledgers(sum_sim_events(export_and_parse()),
                               cluster.clocks());
}

TEST(Trainer, OverlapRunPublishesTraceAndMetrics) {
  TrainerConfig config;
  config.world = 4;
  config.global_batch = 64;
  config.iterations = 4;
  config.model.bottom_hidden = {16};
  config.model.top_hidden = {16};
  config.record_every = 1;
  config.seed = 9;
  config.compression.codec = "hybrid";
  config.overlap.forward = true;
  config.overlap.backward = true;
  config.overlap.pipeline_stages = 2;
  const DatasetSpec spec = DatasetSpec::small_training_proxy(6, 8);
  const SyntheticClickDataset data(spec, 5);

  Tracer& tracer = Tracer::instance();
  tracer.enable();
  const TrainingResult result = HybridParallelTrainer(config).train(data);
  tracer.disable();
  ASSERT_EQ(tracer.dropped_events(), 0u);

  // Metrics snapshot carries the run's headline numbers.
  const MetricsSnapshot& m = result.metrics;
  EXPECT_DOUBLE_EQ(m.value("train/iterations"), 4.0);
  EXPECT_DOUBLE_EQ(m.value("train/world"), 4.0);
  EXPECT_DOUBLE_EQ(m.value("train/forward_wire_bytes"),
                   static_cast<double>(result.forward_wire_bytes));
  // Mirrors the result field exactly (buffer growth itself is exercised
  // by the steady-state tests in test_overlap).
  EXPECT_DOUBLE_EQ(m.value("train/steady_grow_events"),
                   static_cast<double>(result.steady_state_grow_events));
  EXPECT_DOUBLE_EQ(m.value("sim/makespan"), result.makespan_seconds);
  EXPECT_DOUBLE_EQ(m.value("sim/exposed_comm_seconds"),
                   result.exposed_comm_seconds());
  EXPECT_DOUBLE_EQ(m.value("sim/hidden_comm_seconds"),
                   result.hidden_comm_seconds());
  EXPECT_GT(result.hidden_comm_seconds(), 0.0);
  EXPECT_GT(m.value("train/table/0/fwd_raw_bytes"), 0.0);
  EXPECT_GT(m.value("train/table/0/fwd_cr"), 1.0);
  EXPECT_GE(m.value("train/iter_wall_s/count"), 1.0);

  // Per-table tagged bytes decompose the totals exactly. Raw bytes match
  // one-to-one; the wire total additionally carries the exchange framing
  // (a u32 chunk count per destination buffer plus a u64 size per chunk),
  // which belongs to no single table.
  double table_fwd_raw = 0.0;
  double table_fwd_wire = 0.0;
  for (std::size_t t = 0; t < spec.num_tables(); ++t) {
    table_fwd_raw +=
        m.value("train/table/" + std::to_string(t) + "/fwd_raw_bytes");
    table_fwd_wire +=
        m.value("train/table/" + std::to_string(t) + "/fwd_wire_bytes");
  }
  EXPECT_DOUBLE_EQ(table_fwd_raw,
                   static_cast<double>(result.forward_raw_bytes));
  const double framing =
      static_cast<double>(config.iterations) *
      static_cast<double>(config.world * config.world * sizeof(std::uint32_t) +
                          config.world * spec.num_tables() *
                              sizeof(std::uint64_t));
  EXPECT_DOUBLE_EQ(table_fwd_wire + framing,
                   static_cast<double>(result.forward_wire_bytes));

  // The trace's per-rank exposed sums reproduce the slowest rank's
  // makespan, and its hidden ledger ("sim/hidden/" keys) is exactly the
  // async slices on the slowest rank's track.
  const SimTraceSums sums = sum_sim_events(export_and_parse());
  double max_rank_total = 0.0;
  int slowest = -1;
  for (const auto& [rank, phases] : sums.exposed) {
    double total = 0.0;
    for (const auto& [phase, seconds] : phases) total += seconds;
    if (total > max_rank_total) {
      max_rank_total = total;
      slowest = rank;
    }
  }
  EXPECT_NEAR(max_rank_total, result.makespan_seconds, 1e-9);
  ASSERT_GE(slowest, 0);
  for (const auto& [key, value] : m.values) {
    constexpr std::string_view kHiddenPrefix = "sim/hidden/";
    if (key.rfind(kHiddenPrefix, 0) != 0) continue;
    const std::string phase = key.substr(kHiddenPrefix.size());
    const auto rank_it = sums.hidden.find(slowest);
    ASSERT_NE(rank_it, sums.hidden.end());
    const auto it = rank_it->second.find(phase);
    ASSERT_NE(it, rank_it->second.end()) << "missing hidden " << phase;
    EXPECT_NEAR(it->second, value, 1e-9) << phase;
  }
}

}  // namespace
}  // namespace dlcomp
