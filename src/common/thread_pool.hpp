// Minimal fixed-size thread pool used by the CPU baseline engine to
// parallelise embedding gathers and GEMM over worker threads (mirroring the
// multi-core TensorFlow-Serving baseline in the paper) and by the exec
// engine (src/exec/) to shard sweep points.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace microrec {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; the returned future completes when it has run.
  std::future<void> Submit(std::function<void()> task);

  /// Splits [0, count) into one contiguous shard per worker (the last may
  /// be smaller), runs fn(shard_begin, shard_end) on the pool, and blocks
  /// until all complete.
  ///
  /// Always joins every shard before returning, even when a shard throws:
  /// the first worker exception (in shard order) is rethrown to the caller
  /// after all shards have finished, so `fn` and any state it captures by
  /// reference are never touched by a still-running worker after
  /// ParallelFor returns or throws.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace microrec
