#pragma once

/// \file workloads.hpp
/// One benchmark run of one workload, as main.cpp drives it. A run makes
/// its inputs from the seed, measures for about `seconds`, checks the
/// program's outputs, and returns its metrics: every end-to-end metric
/// when `trace` is off, the per-layer metrics it measures when on.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Where traced runs write their Chrome traces, relative to the
/// repository root the benchmark runs from.
inline constexpr const char* kTraceDir = ".bench_build/e2e/traces";

/// Set-ups per e2e run; setup_s is their median.
inline constexpr std::size_t kSetups = 5;

/// Seed s reads the dataset's training batches from s * kStreamStride
/// on, so seeds never share a batch.
inline constexpr std::uint64_t kStreamStride = std::uint64_t{1} << 24;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< the measured window
  bool trace = false;
  /// Steady-clock ns by which every process of the run must have ended.
  std::uint64_t deadline_ns = 0;
};

struct RunOutput {
  std::uint64_t attempted = 0;  ///< iterations or queries attempted
  std::uint64_t failed = 0;     ///< ...of which failed or were refused
  std::vector<std::string> errors;  ///< failed output checks
  std::map<std::string, double> metrics;
};

[[nodiscard]] bool is_train_workload(const std::string& name);
[[nodiscard]] bool is_serve_workload(const std::string& name);

RunOutput run_train_workload(const RunOptions& options);
RunOutput run_serve_workload(const RunOptions& options);

}  // namespace e2e
