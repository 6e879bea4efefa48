#pragma once

/// \file thread_pool.hpp
/// Fixed-size worker pool with a blocking wait. This is the CPU analogue
/// of a GPU stream: the chunked compressor enqueues per-chunk codec work
/// here ("multi-threading for compression and decompression", Sec. III-E),
/// the benches compare pooled against serial execution, and the serving
/// simulator runs one inference-engine replica per worker on it.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dlcomp {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues a task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs body(begin, end) over [begin, end) split into roughly
  /// thread_count()*4 blocks (but at least `grain` items each), blocking
  /// until all blocks complete. Safe to call concurrently with submit().
  /// `body` may throw: the other blocks still run, and once all have
  /// finished the exception of the lowest-indexed failing block is
  /// rethrown on the calling thread (later ones are dropped).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace dlcomp
