#include "exec/parallel.hpp"

#include <algorithm>
#include <thread>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace microrec::exec {

std::size_t DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ResolveThreads(std::size_t requested) {
  return requested == 0 ? DefaultThreads() : requested;
}

ParallelRunner::ParallelRunner(std::size_t threads)
    : threads_(ResolveThreads(threads)) {}

std::uint64_t ParallelRunner::SubSeed(std::uint64_t base_seed,
                                      std::uint64_t index) {
  return HashSeed(base_seed, index);
}

void ParallelRunner::RunIndexed(
    std::size_t count, const std::function<void(std::size_t)>& body) {
  const std::size_t workers = std::min(threads_, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  ThreadPool pool(workers);
  pool.ParallelFor(count, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

}  // namespace microrec::exec
