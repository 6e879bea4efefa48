// Tests for the non-HTTP half of the observability plane: the minimal
// JSON value (parse / dump round-trips, escapes, flattening), run
// manifests (save / load round-trip, the three loader shapes including
// Chrome-trace aggregation), cross-run regression diffing (key
// classification, tolerance bands, strict modes, ignore lists -- the
// `dlcomp obs diff` semantics CI gates on), and the structured JSONL
// logger (line shape, per-site rate limiting with suppressed folding,
// never-limited errors, and the lock-free recent-events ring).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"

namespace dlcomp {
namespace {

namespace fs = std::filesystem;

std::string temp_file(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "dlcomp_test_obs_plane";
  fs::create_directories(dir);
  return (dir / name).string();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// ------------------------------------------------------------------- json

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      "{\"a\":[1,2.5,true,false,null,\"x\"],\"b\":{\"c\":-300,\"d\":0.25}}";
  const JsonValue doc = json_parse(text);
  EXPECT_EQ(doc.dump(), text);
  // Re-parsing the dump is a fixed point.
  EXPECT_EQ(json_parse(doc.dump()).dump(), text);

  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 6u);
  EXPECT_DOUBLE_EQ(a->items()[1].as_number(), 2.5);
  EXPECT_TRUE(a->items()[4].is_null());
  EXPECT_DOUBLE_EQ(doc.find("b")->find("c")->as_number(), -300.0);
}

TEST(Json, EscapesAndUnicode) {
  const JsonValue doc =
      json_parse("{\"k\":\"line\\n tab\\t quote\\\" back\\\\ u\\u00e9\"}");
  EXPECT_EQ(doc.find("k")->as_string(), "line\n tab\t quote\" back\\ u\xc3\xa9");
  // Control characters re-escape on dump.
  EXPECT_EQ(json_quote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(json_quote("q\"\\"), "\"q\\\"\\\\\"");
}

TEST(Json, ParseErrorsThrowWithPosition) {
  EXPECT_THROW((void)json_parse("{\"a\":}"), Error);
  EXPECT_THROW((void)json_parse("[1,2"), Error);
  EXPECT_THROW((void)json_parse("{} trailing"), Error);
  EXPECT_THROW((void)json_parse("nope"), Error);
  EXPECT_THROW((void)json_parse(""), Error);
}

TEST(Json, DeepNestingFailsCleanlyInsteadOfOverflowingTheStack) {
  // Well under the cap parses fine.
  std::string ok(200, '[');
  ok.append(200, ']');
  EXPECT_EQ(json_parse(ok).dump(), ok);

  // Thousands of levels (hostile or corrupt input handed to
  // `dlcomp obs diff`) must be a position-carrying parse error, not a
  // recursion-driven stack overflow. Arrays and objects both count.
  try {
    (void)json_parse(std::string(5000, '['));
    FAIL() << "expected depth error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
  std::string objs;
  for (int i = 0; i < 5000; ++i) objs += "{\"k\":";
  EXPECT_THROW((void)json_parse(objs), Error);
}

TEST(Json, IntegralNumbersDumpWithoutFraction) {
  JsonValue doc = JsonValue::object();
  doc.set("n", JsonValue(42.0));
  doc.set("f", JsonValue(0.25));
  EXPECT_EQ(doc.dump(), "{\"n\":42,\"f\":0.25}");
}

TEST(Json, FlattenNumbers) {
  const JsonValue doc = json_parse(
      "{\"codecs\":{\"hybrid\":{\"ratio\":3.5,\"name\":\"skip\"}},"
      "\"flags\":[true,false],\"nothing\":null,\"n\":7}");
  std::vector<std::pair<std::string, double>> flat;
  json_flatten_numbers(doc, "", flat);
  std::map<std::string, double> m(flat.begin(), flat.end());
  EXPECT_DOUBLE_EQ(m.at("codecs/hybrid/ratio"), 3.5);
  EXPECT_DOUBLE_EQ(m.at("flags/0"), 1.0);
  EXPECT_DOUBLE_EQ(m.at("flags/1"), 0.0);
  EXPECT_DOUBLE_EQ(m.at("n"), 7.0);
  // Strings and nulls are not numeric leaves.
  EXPECT_EQ(m.count("codecs/hybrid/name"), 0u);
  EXPECT_EQ(m.count("nothing"), 0u);
}

// -------------------------------------------------------------- manifests

RunManifest sample_manifest() {
  RunManifest m;
  m.label = "pr7";
  m.mode = "train";
  m.codec = "hybrid";
  m.error_bound = 0.01;
  m.seed = 42;
  m.created = "2026-08-07T00:00:00Z";
  m.config["--iterations"] = "40";
  m.config["--world"] = "4";
  m.metrics["train/loss"] = 0.125;
  m.metrics["train/steady_grow_events"] = 0.0;
  m.metrics["phase/forward_s"] = 1.5;
  m.metrics["codec/stream_crc32"] = 123456.0;
  return m;
}

TEST(Manifest, SaveLoadRoundTrip) {
  const std::string path = temp_file("roundtrip.run.json");
  const RunManifest saved = sample_manifest();
  saved.save(path);

  RunManifest loaded;
  const std::map<std::string, double> metrics =
      load_comparable_metrics(path, &loaded);
  EXPECT_EQ(loaded.label, "pr7");
  EXPECT_EQ(loaded.mode, "train");
  EXPECT_EQ(loaded.codec, "hybrid");
  EXPECT_DOUBLE_EQ(loaded.error_bound, 0.01);
  EXPECT_EQ(loaded.seed, 42u);
  EXPECT_EQ(loaded.created, "2026-08-07T00:00:00Z");
  EXPECT_EQ(loaded.config.at("--iterations"), "40");
  EXPECT_EQ(metrics, saved.metrics);
  // A disk that takes no bytes fails the save, not silently.
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_THROW(saved.save("/dev/full"), Error);
  }
}

TEST(Manifest, LoadsChromeTraceAggregated) {
  const std::string path = temp_file("trace.json");
  write_file(path,
             "{\"traceEvents\":["
             "{\"ph\":\"X\",\"name\":\"serve/batch\",\"dur\":500000},"
             "{\"ph\":\"X\",\"name\":\"serve/batch\",\"dur\":1500000},"
             "{\"ph\":\"X\",\"name\":\"train/step\",\"dur\":250000},"
             "{\"ph\":\"B\",\"name\":\"ignored\",\"ts\":1},"
             "{\"ph\":\"X\",\"name\":\"no_dur\"}"
             "]}");
  const std::map<std::string, double> metrics = load_comparable_metrics(path);
  EXPECT_DOUBLE_EQ(metrics.at("trace/serve/batch_s"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.at("trace/serve/batch_n"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.at("trace/train/step_s"), 0.25);
  EXPECT_EQ(metrics.count("trace/ignored_s"), 0u);
  EXPECT_EQ(metrics.count("trace/no_dur_s"), 0u);
}

TEST(Manifest, LoadsGenericJsonFlattened) {
  const std::string path = temp_file("bench.json");
  write_file(path,
             "{\"label\":\"x\",\"codecs\":{\"hybrid\":"
             "{\"roundtrip_MBps\":800.0,\"stream_crc32\":99}}}");
  const std::map<std::string, double> metrics = load_comparable_metrics(path);
  EXPECT_DOUBLE_EQ(metrics.at("codecs/hybrid/roundtrip_MBps"), 800.0);
  EXPECT_DOUBLE_EQ(metrics.at("codecs/hybrid/stream_crc32"), 99.0);
}

TEST(Manifest, LoadErrorsThrow) {
  EXPECT_THROW((void)load_comparable_metrics(temp_file("missing.json")),
               Error);
  const std::string path = temp_file("not_json.txt");
  write_file(path, "plainly not json\n");
  EXPECT_THROW((void)load_comparable_metrics(path), Error);
}

// ------------------------------------------------------------------- diff

TEST(Diff, KeyClassification) {
  EXPECT_TRUE(diff_key_is_exact("codec/stream_crc32"));
  EXPECT_TRUE(diff_key_is_exact("train/steady_grow_events"));
  EXPECT_FALSE(diff_key_is_exact("serve/queries"));
  EXPECT_TRUE(diff_key_is_timing("phase/forward_s"));
  EXPECT_TRUE(diff_key_is_timing("exchange_us"));
  EXPECT_TRUE(diff_key_is_timing("wall_seconds"));
  EXPECT_TRUE(diff_key_is_timing("serve/latency/p99"));
  EXPECT_FALSE(diff_key_is_timing("compress_MBps"));
  EXPECT_FALSE(diff_key_is_timing("ratio"));
}

TEST(Diff, IdenticalRunsAreQuiet) {
  const RunManifest m = sample_manifest();
  const DiffReport report = diff_metrics(m.metrics, m.metrics);
  EXPECT_TRUE(report.ok());
  EXPECT_STREQ(report.verdict(), "ok");
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_EQ(report.changes, 0u);
  EXPECT_EQ(report.matches, m.metrics.size());
}

TEST(Diff, FlagsInjectedTimingRegression) {
  const RunManifest ref = sample_manifest();
  RunManifest cand = sample_manifest();
  cand.metrics["phase/forward_s"] *= 2.0;  // the injected 2x slowdown

  const DiffReport report = diff_metrics(ref.metrics, cand.metrics);
  EXPECT_FALSE(report.ok());
  EXPECT_STREQ(report.verdict(), "regression");
  EXPECT_EQ(report.regressions, 1u);
  bool found = false;
  for (const DiffEntry& entry : report.entries) {
    if (entry.key == "phase/forward_s") {
      EXPECT_EQ(entry.status, DiffStatus::kRegression);
      EXPECT_NEAR(entry.rel_delta, 1.0, 1e-12);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Diff, FasterTimingIsImprovedNotFlagged) {
  const RunManifest ref = sample_manifest();
  RunManifest cand = sample_manifest();
  cand.metrics["phase/forward_s"] *= 0.5;
  const DiffReport report = diff_metrics(ref.metrics, cand.metrics);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.improvements, 1u);
}

TEST(Diff, ExactKeysTolerateNothing) {
  const RunManifest ref = sample_manifest();
  RunManifest cand = sample_manifest();
  cand.metrics["codec/stream_crc32"] += 1.0;  // within any rel_tol band
  DiffOptions options;
  options.rel_tol = 1e9;
  const DiffReport report = diff_metrics(ref.metrics, cand.metrics, options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions, 1u);
}

TEST(Diff, ValueChangesAreInformationalUnlessStrict) {
  std::map<std::string, double> ref{{"serve/ratio", 4.0}};
  std::map<std::string, double> cand{{"serve/ratio", 8.0}};
  const DiffReport relaxed = diff_metrics(ref, cand);
  EXPECT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed.changes, 1u);

  DiffOptions strict;
  strict.strict_values = true;
  const DiffReport promoted = diff_metrics(ref, cand, strict);
  EXPECT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.regressions, 1u);
}

TEST(Diff, MissingKeysInformationalUnlessStrict) {
  std::map<std::string, double> ref{{"a", 1.0}, {"b", 2.0}};
  std::map<std::string, double> cand{{"b", 2.0}, {"c", 3.0}};
  const DiffReport relaxed = diff_metrics(ref, cand);
  EXPECT_TRUE(relaxed.ok());
  ASSERT_EQ(relaxed.entries.size(), 3u);
  EXPECT_EQ(relaxed.entries[0].status, DiffStatus::kOnlyLeft);
  EXPECT_EQ(relaxed.entries[2].status, DiffStatus::kOnlyRight);

  DiffOptions strict;
  strict.strict_keys = true;
  const DiffReport flagged = diff_metrics(ref, cand, strict);
  EXPECT_FALSE(flagged.ok());
  EXPECT_EQ(flagged.regressions, 2u);
}

TEST(Diff, IgnoreSubstringsSkipKeysEntirely) {
  const RunManifest ref = sample_manifest();
  RunManifest cand = sample_manifest();
  cand.metrics["phase/forward_s"] *= 10.0;
  cand.metrics["codec/stream_crc32"] += 1.0;
  DiffOptions options;
  options.ignore = {"forward", "crc"};
  const DiffReport report = diff_metrics(ref.metrics, cand.metrics, options);
  EXPECT_TRUE(report.ok());
  for (const DiffEntry& entry : report.entries) {
    EXPECT_EQ(entry.key.find("forward"), std::string::npos);
    EXPECT_EQ(entry.key.find("crc"), std::string::npos);
  }
}

TEST(Diff, ReportJsonIsMachineReadable) {
  const RunManifest ref = sample_manifest();
  RunManifest cand = sample_manifest();
  cand.metrics["phase/forward_s"] *= 2.0;
  const DiffReport report = diff_metrics(ref.metrics, cand.metrics);

  const JsonValue doc = json_parse(report.to_json());
  EXPECT_EQ(doc.find("verdict")->as_string(), "regression");
  EXPECT_DOUBLE_EQ(doc.find("regressions")->as_number(), 1.0);
  const JsonValue* entries = doc.find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->items().size(), 1u);  // matches are elided
  EXPECT_EQ(entries->items()[0].find("key")->as_string(),
            "phase/forward_s");
  EXPECT_EQ(entries->items()[0].find("status")->as_string(), "regression");

  // The human rendering carries the same verdict.
  EXPECT_NE(report.to_text().find("verdict: regression"), std::string::npos);
}

// ----------------------------------------------------------------- logger

TEST(Logger, JsonlLineShape) {
  Logger logger;
  logger.set_min_level(LogLevel::kDebug);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  logger.set_sink(sink);
  logger.log(LogLevel::kWarn, "data", "malformed line skipped",
             {{"line", std::size_t{4821}}, {"file", "day_0.tsv"}});

  std::rewind(sink);
  char buf[512] = {};
  ASSERT_NE(std::fgets(buf, sizeof(buf), sink), nullptr);
  std::fclose(sink);

  const JsonValue line = json_parse(buf);
  EXPECT_GT(line.find("ts")->as_number(), 1e9);  // plausible unix time
  EXPECT_EQ(line.find("level")->as_string(), "warn");
  EXPECT_EQ(line.find("component")->as_string(), "data");
  EXPECT_EQ(line.find("msg")->as_string(), "malformed line skipped");
  EXPECT_DOUBLE_EQ(line.find("line")->as_number(), 4821.0);
  EXPECT_EQ(line.find("file")->as_string(), "day_0.tsv");
  EXPECT_EQ(line.find("suppressed"), nullptr);  // nothing was dropped
  EXPECT_EQ(logger.lines_emitted(), 1u);
}

TEST(Logger, PerSiteRateLimitFoldsSuppressedCount) {
  Logger logger;
  logger.set_min_level(LogLevel::kDebug);
  logger.set_sink(nullptr);  // ring + counters only

  // Every call lands in the site's first one-second window.
  LogSite site;
  std::uint32_t admitted = 0;
  for (std::uint32_t i = 0; i < Logger::kSiteBurst + 3; ++i) {
    if (logger.admit(LogLevel::kWarn, site)) {
      logger.log(LogLevel::kWarn, "data", "recurring warning", {}, &site);
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, Logger::kSiteBurst);
  EXPECT_EQ(logger.lines_emitted(), Logger::kSiteBurst);
  EXPECT_EQ(logger.lines_suppressed(), 3u);

  // Errors bypass the exhausted window and fold the suppressed count
  // into their record.
  ASSERT_TRUE(logger.admit(LogLevel::kError, site));
  logger.log(LogLevel::kError, "data", "gave up", {}, &site);
  const std::vector<LogEntry> recent = logger.recent();
  ASSERT_FALSE(recent.empty());
  EXPECT_NE(recent.back().fields_json.find("\"suppressed\":3"),
            std::string::npos);
}

TEST(Logger, LevelFilterIsNotSuppression) {
  Logger logger;  // default min level: kWarn
  logger.set_sink(nullptr);
  LogSite site;
  EXPECT_FALSE(logger.admit(LogLevel::kDebug, site));
  EXPECT_FALSE(logger.admit(LogLevel::kInfo, site));
  EXPECT_EQ(logger.lines_suppressed(), 0u);  // filtered, not dropped
  EXPECT_TRUE(logger.admit(LogLevel::kWarn, site));
}

TEST(Logger, RecentRingKeepsNewestOldestFirst) {
  Logger logger;
  logger.set_min_level(LogLevel::kDebug);
  logger.set_sink(nullptr);
  const std::size_t total = Logger::kRingCapacity + 10;
  for (std::size_t i = 0; i < total; ++i) {
    const LogLevel level = i % 2 == 0 ? LogLevel::kInfo : LogLevel::kWarn;
    logger.log(level, "test", "event " + std::to_string(i), {});
  }
  const std::vector<LogEntry> all = logger.recent();
  ASSERT_EQ(all.size(), Logger::kRingCapacity);
  EXPECT_EQ(all.front().message,
            "event " + std::to_string(total - Logger::kRingCapacity));
  EXPECT_EQ(all.back().message, "event " + std::to_string(total - 1));

  // Level filtering drops the info half.
  const std::vector<LogEntry> warnings = logger.recent(LogLevel::kWarn);
  ASSERT_EQ(warnings.size(), Logger::kRingCapacity / 2);
  for (const LogEntry& entry : warnings) {
    EXPECT_EQ(entry.level, LogLevel::kWarn);
  }
}

TEST(Logger, LongStringsTruncateInRingNotOnSink) {
  Logger logger;
  logger.set_min_level(LogLevel::kDebug);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  logger.set_sink(sink);
  const std::string longmsg(300, 'm');
  logger.log(LogLevel::kWarn, "test", longmsg, {});

  const std::vector<LogEntry> recent = logger.recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_LT(recent[0].message.size(), longmsg.size());  // slot budget
  EXPECT_EQ(recent[0].message,
            longmsg.substr(0, recent[0].message.size()));

  std::rewind(sink);
  char buf[1024] = {};
  ASSERT_NE(std::fgets(buf, sizeof(buf), sink), nullptr);
  std::fclose(sink);
  const JsonValue line = json_parse(buf);
  EXPECT_EQ(line.find("msg")->as_string(), longmsg);  // never truncated
}

TEST(Logger, ConcurrentWritersLappingTheRingNeverTearEntries) {
  // Several writers hammering a 64-slot ring lap each other onto the
  // same slots; the ticket-derived seqlock must keep every snapshot
  // entry internally consistent (component and message from the same
  // write), with a reader polling mid-flight.
  Logger logger;
  logger.set_min_level(LogLevel::kDebug);
  logger.set_sink(nullptr);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;

  const auto validate = [](const std::vector<LogEntry>& entries) {
    for (const LogEntry& e : entries) {
      // A claimed-but-not-yet-published (or lapped-and-dropped) slot
      // reads as zeros; only published entries carry content to check.
      if (e.component.empty() && e.message.empty()) continue;
      ASSERT_EQ(e.component.size(), 2u);
      ASSERT_EQ(e.component[0], 'w');
      const char id = e.component[1];
      ASSERT_GE(id, '0');
      ASSERT_LT(id, static_cast<char>('0' + kWriters));
      EXPECT_EQ(e.message, std::string("writer ") + id + " event");
    }
  };

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) validate(logger.recent());
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&logger, t] {
      const std::string comp = "w" + std::to_string(t);
      const std::string msg = "writer " + std::to_string(t) + " event";
      for (int i = 0; i < kPerWriter; ++i) {
        logger.log(LogLevel::kInfo, comp, msg, {});
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  validate(logger.recent());
  EXPECT_EQ(logger.lines_emitted(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

}  // namespace
}  // namespace dlcomp
