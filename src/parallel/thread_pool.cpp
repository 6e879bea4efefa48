#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "common/error.hpp"

namespace dlcomp {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  DLCOMP_CHECK(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    DLCOMP_CHECK_MSG(!stopping_, "submit after shutdown");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t total = end - begin;
  const std::size_t target_blocks = static_cast<std::size_t>(thread_count()) * 4;
  const std::size_t block =
      std::max(grain, (total + target_blocks - 1) / std::max<std::size_t>(target_blocks, 1));

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t outstanding = 0;
  // The failing block with the lowest start; blocks start in index order.
  std::exception_ptr error;
  std::size_t error_lo = end;

  for (std::size_t lo = begin; lo < end; lo += block) {
    const std::size_t hi = std::min(end, lo + block);
    {
      std::lock_guard lock(done_mutex);
      ++outstanding;
    }
    submit([&, lo, hi] {
      std::exception_ptr failure;
      try {
        body(lo, hi);
      } catch (...) {
        failure = std::current_exception();
      }
      std::lock_guard lock(done_mutex);
      if (failure && lo < error_lo) {
        error = std::move(failure);
        error_lo = lo;
      }
      if (--outstanding == 0) done_cv.notify_all();
    });
  }

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return outstanding == 0; });
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace dlcomp
