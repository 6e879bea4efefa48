#include "procs.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <thread>

#include "common/error.hpp"

namespace e2e {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void write_all(int fd, std::string_view text) {
  while (!text.empty()) {
    const ssize_t n = ::write(fd, text.data(), text.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw dlcomp::Error("write to the parent's pipe failed");
    text.remove_prefix(static_cast<std::size_t>(n));
  }
}

ChildGroup::~ChildGroup() {
  for (Child& c : children_) {
    if (c.fd >= 0) ::close(c.fd);
    if (!c.reaped) {
      ::kill(c.pid, SIGKILL);
      int status = 0;
      while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
}

void ChildGroup::spawn(const std::function<int(int fd)>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw dlcomp::Error("pipe failed");
  const pid_t parent = ::getpid();
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw dlcomp::Error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(1);  // parent died before prctl
    int code = 1;
    try {
      code = body(fds[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "child %d: error: %s\n", static_cast<int>(getpid()),
                   e.what());
    }
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(code);
  }
  ::close(fds[1]);
  Child child;
  child.pid = pid;
  child.fd = fds[0];
  children_.push_back(std::move(child));
}

std::vector<ChildResult> ChildGroup::wait(double deadline_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(deadline_s);
  const auto remaining_ms = [&] {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    return static_cast<int>(std::max<long long>(0, left.count()));
  };

  // Drain every pipe until EOF (children close it by exiting).
  for (;;) {
    std::vector<pollfd> polls;
    std::vector<Child*> owners;
    for (Child& c : children_) {
      if (c.fd >= 0) {
        polls.push_back({c.fd, POLLIN, 0});
        owners.push_back(&c);
      }
    }
    if (polls.empty() || remaining_ms() == 0) break;
    const int n = ::poll(polls.data(), polls.size(), remaining_ms());
    if (n < 0 && errno != EINTR) break;
    for (std::size_t i = 0; i < polls.size(); ++i) {
      if (polls[i].revents == 0) continue;
      char buf[4096];
      const ssize_t got = ::read(polls[i].fd, buf, sizeof(buf));
      if (got > 0) {
        owners[i]->result.output.append(buf, static_cast<std::size_t>(got));
      } else if (got == 0 || errno != EINTR) {
        ::close(owners[i]->fd);
        owners[i]->fd = -1;
      }
    }
  }

  // Reap; whoever is still running at the deadline is killed.
  for (Child& c : children_) {
    while (!c.reaped) {
      int status = 0;
      const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
      if (r == c.pid) {
        c.reaped = true;
        c.result.status = status;
        c.result.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                      !c.result.timed_out;
      } else if (r < 0 && errno != EINTR) {
        c.reaped = true;  // not our child any more; nothing to wait for
      } else if (remaining_ms() == 0) {
        ::kill(c.pid, SIGKILL);
        c.result.timed_out = true;
        while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
        }
        c.reaped = true;
        c.result.status = status;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
  }

  std::vector<ChildResult> results;
  for (Child& c : children_) results.push_back(std::move(c.result));
  children_.clear();
  return results;
}

}  // namespace e2e
