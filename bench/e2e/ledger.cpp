#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <tuple>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace e2e {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  return values[dlcomp::nearest_rank(values.size(), q) - 1];
}

double tail_percentile(std::size_t n) {
  for (const double q : {99.0, 90.0}) {
    if (n >= dlcomp::nearest_rank(n, q) + 10) return q;
  }
  return 50.0;
}

Spread spread(std::span<const double> values) {
  const std::vector<double> v(values.begin(), values.end());
  return {v.size(), percentile(v, 50.0), percentile(v, 10.0),
          percentile(v, 90.0)};
}

double RunTally::failed_frac() const {
  if (failed_shares.empty()) return 1.0;
  double sum = 0.0;
  for (const double share : failed_shares) sum += share;
  return sum / static_cast<double>(failed_shares.size());
}

namespace {

std::string_view last_line(std::string_view text) {
  while (!text.empty() && text.back() == '\n') text.remove_suffix(1);
  const std::size_t newline = text.rfind('\n');
  return newline == std::string_view::npos ? text : text.substr(newline + 1);
}

const dlcomp::JsonValue& field(const dlcomp::JsonValue& object, std::string_view key) {
  const dlcomp::JsonValue* v = object.find(key);
  if (v == nullptr) throw dlcomp::Error("result lacks '" + std::string(key) + "'");
  return *v;
}

}  // namespace

bool fold_run(RunTally& tally, bool exited_ok, const std::string& output) {
  // Read the whole result before keeping any of it, so a malformed one
  // counts as no result at all.
  double failed_share = 1.0;
  bool correct = false;
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  try {
    const dlcomp::JsonValue result = dlcomp::json_parse(last_line(output));
    const double attempted = field(result, "attempted").as_number();
    const double failed = field(result, "failed").as_number();
    if (!(attempted >= 1.0) || !(failed >= 0.0) || failed > attempted) {
      throw dlcomp::Error("result has invalid operation counts");
    }
    for (const auto& [name, m] : field(result, "metrics").members()) {
      metrics.emplace_back(name, field(m, "value").as_number(),
                           field(m, "unit").as_string());
    }
    failed_share = failed / attempted;
    correct = field(result, "correct").as_bool();
  } catch (const std::exception&) {
    tally.failed_shares.push_back(1.0);
    return false;
  }
  tally.failed_shares.push_back(failed_share);
  ++tally.measured;
  for (auto& [name, value, unit] : metrics) {
    tally.values[name].push_back(value);
    tally.units[name] = std::move(unit);
  }
  return exited_ok && correct && failed_share == 0.0;
}

SpanLedger build_ledger(std::span<const dlcomp::TraceEvent> events,
                        std::string_view root, std::size_t skip) {
  using Kind = dlcomp::TraceEvent::Kind;
  struct Open {
    const char* name;
    std::uint64_t begin_ns;
    std::uint64_t child_ns;  // time covered by direct children
  };
  // Integer nanoseconds while folding, so self times sum to root times
  // exactly; converted to seconds once at the end.
  std::map<std::string, std::uint64_t> self_ns;
  std::map<std::string, std::uint64_t> total_ns;
  std::vector<std::uint64_t> roots_ns;
  std::vector<Open> stack;
  std::size_t roots_seen = 0;
  bool measured = false;

  for (const dlcomp::TraceEvent& ev : events) {
    if (ev.kind == Kind::kBegin) {
      if (stack.empty()) {
        if (root != ev.name) continue;  // outside any unit of work
        measured = roots_seen++ >= skip;
      }
      stack.push_back({ev.name, ev.wall_ns, 0});
    } else if (ev.kind == Kind::kEnd) {
      if (stack.empty()) {
        if (root == ev.name) {
          throw dlcomp::Error("span ledger: root end without a begin");
        }
        continue;  // end of a span opened outside any root
      }
      const Open open = stack.back();
      if (std::string_view(open.name) != ev.name || ev.wall_ns < open.begin_ns) {
        throw dlcomp::Error(std::string("span ledger: '") + ev.name +
                            "' ends while '" + open.name + "' is open");
      }
      stack.pop_back();
      const std::uint64_t duration = ev.wall_ns - open.begin_ns;
      if (!stack.empty()) stack.back().child_ns += duration;
      if (!measured) continue;
      self_ns[open.name] += duration - std::min(duration, open.child_ns);
      total_ns[open.name] += duration;
      if (stack.empty()) roots_ns.push_back(duration);
    }
  }

  SpanLedger ledger;
  for (const auto& [name, ns] : self_ns) ledger.self_s[name] = ns * 1e-9;
  for (const auto& [name, ns] : total_ns) ledger.total_s[name] = ns * 1e-9;
  for (const std::uint64_t ns : roots_ns) ledger.roots_s.push_back(ns * 1e-9);
  return ledger;
}

}  // namespace e2e
