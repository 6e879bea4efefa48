// Self-test of the benchmark's own machinery: percentiles, the spread
// across runs, the suite's tally of runs that crashed or hung, span
// self-time reconciliation on fixed inputs, and the deadline that turns a
// hung child process into a failed run.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "ledger.hpp"
#include "procs.hpp"

namespace {

using dlcomp::TraceEvent;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankIncludingExactIntegerRanks) {
  // q * N / 100 an exact integer: the rank is that integer, not one past
  // it (p50 of 10 is the 5th value, p90 of 10 the 9th).
  EXPECT_EQ(e2e::percentile(one_to(10), 50.0), 5.0);
  EXPECT_EQ(e2e::percentile(one_to(10), 90.0), 9.0);
  EXPECT_EQ(e2e::percentile(one_to(100), 99.0), 99.0);
  EXPECT_EQ(e2e::percentile(one_to(1000), 99.9), 999.0);
  // Otherwise the next rank up.
  EXPECT_EQ(e2e::percentile(one_to(10), 51.0), 6.0);
  EXPECT_EQ(e2e::percentile(one_to(7), 50.0), 4.0);
  EXPECT_EQ(e2e::percentile(one_to(10), 0.0), 1.0);
  EXPECT_EQ(e2e::percentile(one_to(10), 100.0), 10.0);
  EXPECT_EQ(e2e::percentile({3.5}, 99.0), 3.5);
  EXPECT_TRUE(std::isnan(e2e::percentile({}, 50.0)));
}

TEST(Percentile, TailLeavesTenSamplesAbove) {
  EXPECT_EQ(e2e::tail_percentile(100), 90.0);    // rank 90, 10 above
  EXPECT_EQ(e2e::tail_percentile(99), 50.0);     // p90 would leave 9
  EXPECT_EQ(e2e::tail_percentile(999), 90.0);    // p99 would leave 9
  EXPECT_EQ(e2e::tail_percentile(1000), 99.0);   // rank 990, 10 above
  EXPECT_EQ(e2e::tail_percentile(100000), 99.0); // the ladder stops at p99
  EXPECT_EQ(e2e::tail_percentile(3), 50.0);
}

TEST(Spread, MedianAndDeciles) {
  const std::vector<double> runs = {14.0, 10.0, 12.0, 11.0, 13.0};
  const e2e::Spread s = e2e::spread(runs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_EQ(s.median, 12.0);
  EXPECT_EQ(s.p10, 10.0);
  EXPECT_EQ(s.p90, 14.0);
}

constexpr const char* kGoodResult =
    "build output\n"
    R"({"correct": true, "attempted": 100, "failed": 0, "metrics": )"
    R"({"p50_ms": {"value": 12.5, "unit": "ms"}}})"
    "\n";

TEST(RunTally, ResultLineIsFolded) {
  e2e::RunTally tally;
  EXPECT_TRUE(e2e::fold_run(tally, true, kGoodResult));
  EXPECT_EQ(tally.measured, 1u);
  EXPECT_EQ(tally.failed_frac(), 0.0);
  EXPECT_EQ(tally.values.at("p50_ms"), std::vector<double>{12.5});
  EXPECT_EQ(tally.units.at("p50_ms"), "ms");
  // A nonzero exit fails the run but keeps its measurements.
  EXPECT_FALSE(e2e::fold_run(tally, false, kGoodResult));
  EXPECT_EQ(tally.measured, 2u);
}

TEST(RunTally, RunWithoutResultFailsEveryOperation) {
  // A run that exits 0 without printing, one killed at its deadline after
  // partial output, and one whose result counts no operation: each fails
  // all of its run and adds no metric sample.
  e2e::ChildGroup group;
  group.spawn([](int) { return 0; });
  group.spawn([](int fd) {
    e2e::write_all(fd, "partial output\n");
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return 0;
  });
  const std::vector<e2e::ChildResult> children = group.wait(0.5);

  e2e::RunTally tally;
  EXPECT_TRUE(e2e::fold_run(tally, true, kGoodResult));
  for (const e2e::ChildResult& child : children) {
    EXPECT_FALSE(e2e::fold_run(tally, child.ok, child.output));
  }
  EXPECT_FALSE(e2e::fold_run(tally, true, R"({"correct": true, "attempted": 0})"));
  EXPECT_EQ(tally.failed_shares.size(), 4u);
  EXPECT_EQ(tally.measured, 1u);
  EXPECT_EQ(tally.values.at("p50_ms").size(), 1u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 3.0 / 4.0);
}

TEST(RunTally, FailedOperationsAreAShareOfTheirRun) {
  e2e::RunTally tally;
  EXPECT_FALSE(e2e::fold_run(
      tally, false,
      R"({"correct": false, "attempted": 40, "failed": 10, "metrics": {}})"));
  EXPECT_TRUE(e2e::fold_run(tally, true, kGoodResult));
  EXPECT_DOUBLE_EQ(tally.failed_frac(), (0.25 + 0.0) / 2.0);
  EXPECT_EQ(e2e::RunTally{}.failed_frac(), 1.0);
}

TraceEvent ev(TraceEvent::Kind kind, const char* name, std::uint64_t ns) {
  TraceEvent e;
  e.kind = kind;
  e.name = name;
  e.wall_ns = ns;
  return e;
}

TraceEvent begin(const char* name, std::uint64_t ns) {
  return ev(TraceEvent::Kind::kBegin, name, ns);
}
TraceEvent end(const char* name, std::uint64_t ns) {
  return ev(TraceEvent::Kind::kEnd, name, ns);
}

/// Two units of work; the first is warm-up. In the second (100 ns):
///   a [10, 40) holding b [15, 35) holding c [20, 25)
///   a [50, 60)            (a second call of the same layer)
///   instant and stray spans outside the root are ignored.
std::vector<TraceEvent> synthetic_spans() {
  return {
      begin("outside", 0),     end("outside", 5),
      begin("iter", 1000),     begin("a", 1001),       end("a", 1099),
      end("iter", 1100),
      begin("iter", 2000),     begin("a", 2010),       begin("b", 2015),
      begin("c", 2020),        end("c", 2025),         end("b", 2035),
      end("a", 2040),          ev(TraceEvent::Kind::kInstant, "mark", 2045),
      begin("a", 2050),        end("a", 2060),         end("iter", 2100),
  };
}

double self_sum(const e2e::SpanLedger& ledger) {
  double sum = 0.0;
  for (const auto& [name, seconds] : ledger.self_s) sum += seconds;
  return sum;
}

TEST(SpanLedger, SelfTimesReconcileWithTheRoot) {
  const std::vector<TraceEvent> events = synthetic_spans();
  const e2e::SpanLedger ledger = e2e::build_ledger(events, "iter", 1);

  ASSERT_EQ(ledger.roots_s.size(), 1u);
  EXPECT_DOUBLE_EQ(ledger.roots_s[0], 100e-9);
  EXPECT_DOUBLE_EQ(ledger.self_s.at("c"), 5e-9);
  EXPECT_DOUBLE_EQ(ledger.self_s.at("b"), 15e-9);          // 20 - c's 5
  EXPECT_DOUBLE_EQ(ledger.self_s.at("a"), (10 + 10) * 1e-9);  // 30 - b's 20, + 10
  EXPECT_DOUBLE_EQ(ledger.total_s.at("a"), 40e-9);
  EXPECT_DOUBLE_EQ(ledger.self_s.at("iter"), 60e-9);  // unattributed
  EXPECT_EQ(ledger.self_s.count("outside"), 0u);
  EXPECT_EQ(ledger.self_s.count("mark"), 0u);
  // Layers plus unattributed add up to the unit of work.
  EXPECT_DOUBLE_EQ(self_sum(ledger), ledger.roots_s[0]);
  EXPECT_DOUBLE_EQ(100.0 * ledger.self_s.at("iter") / ledger.roots_s[0], 60.0);
}

TEST(SpanLedger, WarmUpRootsAreSkipped) {
  const std::vector<TraceEvent> events = synthetic_spans();
  const e2e::SpanLedger all = e2e::build_ledger(events, "iter", 0);
  ASSERT_EQ(all.roots_s.size(), 2u);
  EXPECT_DOUBLE_EQ(all.self_s.at("a"), (98 + 20) * 1e-9);
  EXPECT_DOUBLE_EQ(self_sum(all), 200e-9);
}

TEST(SpanLedger, MismatchedEndIsAnError) {
  const std::vector<TraceEvent> events = {begin("iter", 0), begin("a", 1),
                                          end("iter", 2)};
  EXPECT_THROW((void)e2e::build_ledger(events, "iter", 0), dlcomp::Error);
}

TEST(ChildGroup, HungChildIsKilledAtTheDeadline) {
  const auto start = std::chrono::steady_clock::now();
  e2e::ChildGroup group;
  group.spawn([](int fd) {
    e2e::write_all(fd, "report");
    return 0;
  });
  group.spawn([](int) {
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return 0;
  });
  group.spawn([](int) { return 3; });
  const std::vector<e2e::ChildResult> results = group.wait(0.5);
  const double took = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].output, "report");
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[1].timed_out);
  EXPECT_FALSE(results[2].ok);
  EXPECT_FALSE(results[2].timed_out);
  EXPECT_LT(took, 5.0);
}

}  // namespace
