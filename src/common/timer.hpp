#pragma once

/// \file timer.hpp
/// Wall-clock timing helpers used by benchmarks and the cost model.

#include <chrono>

namespace dlcomp {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() noexcept : start_(clock::now()) {}

  /// Restarts the stopwatch.
  void reset() noexcept { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace dlcomp
