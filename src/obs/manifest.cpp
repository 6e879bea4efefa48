#include "obs/manifest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/json.hpp"

namespace dlcomp {

namespace {

constexpr std::string_view kManifestMarker = "dlcomp_manifest";
constexpr double kManifestVersion = 1.0;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("obs: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool contains_ci(const std::string& haystack, std::string_view needle) {
  const auto lower = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c;
  };
  if (needle.empty() || haystack.size() < needle.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool hit = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      if (lower(haystack[i + j]) != lower(needle[j])) {
        hit = false;
        break;
      }
    }
    if (hit) return true;
  }
  return false;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Chrome trace -> per-name aggregate durations. Only complete ("X")
/// events carry durations; "dur" is microseconds per the trace format.
std::map<std::string, double> aggregate_chrome_trace(const JsonValue& doc) {
  const JsonValue* events = doc.find("traceEvents");
  DLCOMP_CHECK(events != nullptr && events->is_array());
  std::map<std::string, double> out;
  for (const JsonValue& event : events->items()) {
    if (!event.is_object()) continue;
    const JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") continue;
    const JsonValue* name = event.find("name");
    const JsonValue* dur = event.find("dur");
    if (name == nullptr || !name->is_string() || dur == nullptr ||
        !dur->is_number()) {
      continue;
    }
    out["trace/" + name->as_string() + "_s"] += dur->as_number() * 1e-6;
    out["trace/" + name->as_string() + "_n"] += 1.0;
  }
  return out;
}

const char* diff_status_name(DiffStatus status) {
  switch (status) {
    case DiffStatus::kMatch: return "match";
    case DiffStatus::kImproved: return "improved";
    case DiffStatus::kChanged: return "changed";
    case DiffStatus::kRegression: return "regression";
    case DiffStatus::kOnlyLeft: return "only_reference";
    case DiffStatus::kOnlyRight: return "only_candidate";
  }
  return "?";
}

}  // namespace

std::string RunManifest::to_json(int indent) const {
  JsonValue doc = JsonValue::object();
  doc.set(std::string(kManifestMarker), JsonValue(kManifestVersion));
  doc.set("label", JsonValue(label));
  doc.set("mode", JsonValue(mode));
  doc.set("codec", JsonValue(codec));
  doc.set("error_bound", JsonValue(error_bound));
  doc.set("seed", JsonValue(static_cast<double>(seed)));
  doc.set("created", JsonValue(created));

  JsonValue cfg = JsonValue::object();
  for (const auto& [key, value] : config) cfg.set(key, JsonValue(value));
  doc.set("config", std::move(cfg));

  JsonValue mts = JsonValue::object();
  for (const auto& [key, value] : metrics) mts.set(key, JsonValue(value));
  doc.set("metrics", std::move(mts));
  return doc.dump(indent);
}

void RunManifest::save(const std::string& path) const {
  write_file(path, to_json(2) + '\n');
}

std::string utc_now_iso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return stamp;
}

std::map<std::string, double> load_comparable_metrics(
    const std::string& path, RunManifest* out_manifest) {
  const JsonValue doc = json_parse(read_file(path));

  if (doc.is_object() && doc.find(kManifestMarker) != nullptr) {
    RunManifest manifest;
    const auto str = [&doc](std::string_view key) {
      const JsonValue* v = doc.find(key);
      return v != nullptr && v->is_string() ? v->as_string() : std::string();
    };
    manifest.label = str("label");
    manifest.mode = str("mode");
    manifest.codec = str("codec");
    manifest.created = str("created");
    if (const JsonValue* v = doc.find("error_bound");
        v != nullptr && v->is_number()) {
      manifest.error_bound = v->as_number();
    }
    if (const JsonValue* v = doc.find("seed"); v != nullptr && v->is_number()) {
      manifest.seed = static_cast<std::uint64_t>(v->as_number());
    }
    if (const JsonValue* cfg = doc.find("config");
        cfg != nullptr && cfg->is_object()) {
      for (const auto& [key, value] : cfg->members()) {
        if (value.is_string()) manifest.config[key] = value.as_string();
      }
    }
    if (const JsonValue* mts = doc.find("metrics");
        mts != nullptr && mts->is_object()) {
      for (const auto& [key, value] : mts->members()) {
        if (value.is_number()) manifest.metrics[key] = value.as_number();
      }
    }
    if (out_manifest != nullptr) *out_manifest = manifest;
    return manifest.metrics;
  }

  if (doc.is_object() && doc.find("traceEvents") != nullptr) {
    return aggregate_chrome_trace(doc);
  }

  // Generic JSON report (BENCH_codec.json, bench --smoke output, ...).
  std::vector<std::pair<std::string, double>> flat;
  json_flatten_numbers(doc, "", flat);
  std::map<std::string, double> out;
  for (auto& [key, value] : flat) out.insert_or_assign(std::move(key), value);
  return out;
}

bool diff_key_is_exact(const std::string& key) {
  return contains_ci(key, "crc") || contains_ci(key, "grow");
}

bool diff_key_is_timing(const std::string& key) {
  return ends_with(key, "_s") || ends_with(key, "_us") ||
         ends_with(key, "_ms") || ends_with(key, "_ns") ||
         contains_ci(key, "seconds") || contains_ci(key, "latency") ||
         contains_ci(key, "/p50") || contains_ci(key, "/p95") ||
         contains_ci(key, "/p99") || contains_ci(key, "duration");
}

DiffReport diff_metrics(const std::map<std::string, double>& reference,
                        const std::map<std::string, double>& candidate,
                        const DiffOptions& options) {
  const auto ignored = [&options](const std::string& key) {
    return std::any_of(options.ignore.begin(), options.ignore.end(),
                       [&key](const std::string& needle) {
                         return key.find(needle) != std::string::npos;
                       });
  };

  DiffReport report;
  auto lhs = reference.begin();
  auto rhs = candidate.begin();
  while (lhs != reference.end() || rhs != candidate.end()) {
    DiffEntry entry;
    if (rhs == candidate.end() ||
        (lhs != reference.end() && lhs->first < rhs->first)) {
      entry.key = lhs->first;
      entry.reference = lhs->second;
      entry.status = DiffStatus::kOnlyLeft;
      ++lhs;
    } else if (lhs == reference.end() || rhs->first < lhs->first) {
      entry.key = rhs->first;
      entry.candidate = rhs->second;
      entry.status = DiffStatus::kOnlyRight;
      ++rhs;
    } else {
      entry.key = lhs->first;
      entry.reference = lhs->second;
      entry.candidate = rhs->second;
      ++lhs;
      ++rhs;
      const double base = std::fabs(entry.reference);
      entry.rel_delta = base > 0.0
                            ? (entry.candidate - entry.reference) / base
                            : (entry.candidate == entry.reference ? 0.0
                               : entry.candidate > entry.reference ? 1.0
                                                                   : -1.0);
      if (ignored(entry.key)) continue;
      if (diff_key_is_exact(entry.key)) {
        entry.status = entry.candidate == entry.reference
                           ? DiffStatus::kMatch
                           : DiffStatus::kRegression;
      } else if (diff_key_is_timing(entry.key)) {
        if (entry.rel_delta > options.rel_tol) {
          entry.status = DiffStatus::kRegression;
        } else if (entry.rel_delta < -options.rel_tol) {
          entry.status = DiffStatus::kImproved;
        } else {
          entry.status = DiffStatus::kMatch;
        }
      } else {
        if (std::fabs(entry.rel_delta) > options.rel_tol) {
          entry.status = options.strict_values ? DiffStatus::kRegression
                                               : DiffStatus::kChanged;
        } else {
          entry.status = DiffStatus::kMatch;
        }
      }
      switch (entry.status) {
        case DiffStatus::kMatch: ++report.matches; break;
        case DiffStatus::kImproved: ++report.improvements; break;
        case DiffStatus::kChanged: ++report.changes; break;
        case DiffStatus::kRegression: ++report.regressions; break;
        default: break;
      }
      report.entries.push_back(std::move(entry));
      continue;
    }
    if (ignored(entry.key)) continue;
    if (options.strict_keys) {
      entry.status = DiffStatus::kRegression;
      ++report.regressions;
    }
    report.entries.push_back(std::move(entry));
  }
  return report;
}

std::string DiffReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("verdict", JsonValue(std::string(verdict())));
  doc.set("regressions", JsonValue(static_cast<double>(regressions)));
  doc.set("improvements", JsonValue(static_cast<double>(improvements)));
  doc.set("changes", JsonValue(static_cast<double>(changes)));
  doc.set("matches", JsonValue(static_cast<double>(matches)));
  JsonValue list = JsonValue::array();
  for (const DiffEntry& entry : entries) {
    if (entry.status == DiffStatus::kMatch) continue;  // keep output small
    JsonValue e = JsonValue::object();
    e.set("key", JsonValue(entry.key));
    e.set("status", JsonValue(std::string(diff_status_name(entry.status))));
    e.set("reference", JsonValue(entry.reference));
    e.set("candidate", JsonValue(entry.candidate));
    e.set("rel_delta", JsonValue(entry.rel_delta));
    list.push_back(std::move(e));
  }
  doc.set("entries", std::move(list));
  return doc.dump(2);
}

std::string DiffReport::to_text() const {
  std::ostringstream out;
  out << "verdict: " << verdict() << "  (" << regressions << " regressions, "
      << improvements << " improvements, " << changes << " changes, "
      << matches << " within tolerance)\n";
  for (const DiffEntry& entry : entries) {
    if (entry.status == DiffStatus::kMatch) continue;
    char line[256];
    if (entry.status == DiffStatus::kOnlyLeft ||
        entry.status == DiffStatus::kOnlyRight) {
      std::snprintf(line, sizeof(line), "  %-14s %s\n",
                    diff_status_name(entry.status), entry.key.c_str());
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-14s %s  %.6g -> %.6g  (%+.1f%%)\n",
                    diff_status_name(entry.status), entry.key.c_str(),
                    entry.reference, entry.candidate,
                    entry.rel_delta * 100.0);
    }
    out << line;
  }
  return out.str();
}

}  // namespace dlcomp
