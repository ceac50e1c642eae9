#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "common/status.hpp"

namespace microrec {

ThreadPool::ThreadPool(std::size_t num_threads) {
  MICROREC_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t chunk = (count + workers_.size() - 1) / workers_.size();
  if (chunk >= count) {
    // Single shard: run inline on the caller instead of round-tripping
    // through the queue. Besides latency this keeps the hot inference path
    // allocation-free (Submit allocates a packaged_task + future).
    fn(0, count);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve((count + chunk - 1) / chunk);
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const std::size_t end = std::min(count, begin + chunk);
    futures.push_back(Submit([&fn, begin, end] { fn(begin, end); }));
  }
  // Join everything before surfacing errors: a shard that throws must not
  // leave sibling shards running against caller state we are about to
  // unwind. The first failing shard (in shard order) wins.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace microrec
