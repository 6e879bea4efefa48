#include "common/latency_recorder.hpp"

#include <algorithm>
#include <cstdio>

#include "common/stats.hpp"

namespace dlcomp {

void LatencyRecorder::record(double seconds) {
  samples_.push_back(static_cast<float>(seconds));
  sum_ += seconds;
  min_ = std::min(min_, seconds);
  max_ = std::max(max_, seconds);
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

LatencySummary LatencyRecorder::summary() const {
  LatencySummary s;
  s.count = samples_.size();
  if (samples_.empty()) return s;

  std::vector<float> sorted(samples_.begin(), samples_.end());
  std::sort(sorted.begin(), sorted.end());
  s.mean_s = sum_ / static_cast<double>(samples_.size());
  s.min_s = min_;
  s.max_s = max_;
  s.p50_s = percentile_sorted(sorted, 50.0);
  s.p95_s = percentile_sorted(sorted, 95.0);
  s.p99_s = percentile_sorted(sorted, 99.0);
  s.p999_s = percentile_sorted(sorted, 99.9);
  return s;
}

void LatencyRecorder::snapshot_to(MetricsSnapshot& snap,
                                  const std::string& name) const {
  const LatencySummary s = summary();
  snap.set(name + "/count", static_cast<double>(s.count));
  snap.set(name + "/mean", s.mean_s);
  snap.set(name + "/min", s.min_s);
  snap.set(name + "/max", s.max_s);
  snap.set(name + "/p50", s.p50_s);
  snap.set(name + "/p95", s.p95_s);
  snap.set(name + "/p99", s.p99_s);
  snap.set(name + "/p999", s.p999_s);
}

std::string format_latency(const LatencySummary& summary) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "p50=%.3fms p95=%.3fms p99=%.3fms p99.9=%.3fms (n=%zu)",
                summary.p50_s * 1e3, summary.p95_s * 1e3, summary.p99_s * 1e3,
                summary.p999_s * 1e3, summary.count);
  return buf;
}

}  // namespace dlcomp
