#pragma once

/// \file procs.hpp
/// Child processes with a deadline. The training workloads run each TCP
/// rank as a forked process and the suite runs every workload in a fresh
/// exec'd process; both need the same guarantees: a child that hangs is
/// killed at the deadline instead of blocking the benchmark, every child
/// is reaped before the group goes away, and a child dies with its
/// parent (PR_SET_PDEATHSIG), so no process outlives a run.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct ChildResult {
  bool ok = false;         ///< exited with status 0 before the deadline
  bool timed_out = false;  ///< killed at the deadline
  int status = 0;          ///< raw waitpid status
  std::string output;      ///< everything the child wrote to its pipe
};

class ChildGroup {
 public:
  ChildGroup() = default;
  /// Kills and reaps every child still running.
  ~ChildGroup();
  ChildGroup(const ChildGroup&) = delete;
  ChildGroup& operator=(const ChildGroup&) = delete;

  /// Forks a child that runs `body(fd)` and exits with its return value
  /// (1 if it throws). `fd` is the write end of a pipe the parent
  /// collects into ChildResult::output.
  void spawn(const std::function<int(int fd)>& body);

  /// Collects output and waits for every child for at most `deadline_s`
  /// seconds, then kills the rest. Results are in spawn order.
  std::vector<ChildResult> wait(double deadline_s);

 private:
  struct Child {
    pid_t pid = -1;
    int fd = -1;
    bool reaped = false;
    ChildResult result;
  };
  std::vector<Child> children_;
};

/// Writes all of `text` to a pipe or file; throws dlcomp::Error.
void write_all(int fd, std::string_view text);

/// Steady-clock nanoseconds; one clock for every process on the host,
/// so timestamps taken in forked ranks compare with the parent's.
[[nodiscard]] std::uint64_t now_ns() noexcept;

}  // namespace e2e
