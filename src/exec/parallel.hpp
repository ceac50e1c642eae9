// Deterministic parallel experiment engine.
//
// Every sweep CLI, ablation bench, and Monte-Carlo study in the repo is a
// map over *independent* experiment points: point i depends only on its
// index, its own sub-seeded RNG streams, and shared read-only state (the
// model, the engine timing, the arrival vector). ParallelRunner shards
// such maps across a ThreadPool while keeping the output bit-identical to
// a serial run:
//
//   * results land in a pre-sized vector at their point index, so the
//     reduction order is the index order no matter which thread finished
//     first or last;
//   * randomized points derive their seed as SubSeed(base, index)
//     (SplitMix64 seed hashing, the same scheme DeltaStream and the fault
//     schedule already use per stream) -- never from a shared generator
//     whose consumption order would depend on scheduling.
//
// Points never share telemetry: a sweep that records metrics or events
// does so inside one point, so nothing is merged across threads.
//
// With one worker the runner degenerates to a plain in-order loop with no
// pool and no futures -- that loop *is* the definition of the serial
// baseline the N-thread run must reproduce, and tests/exec_test.cpp +
// bench_wallclock enforce the equivalence end to end. See DESIGN.md
// section 11 for the contract.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace microrec::exec {

/// Hardware thread count (>= 1) as the default parallelism.
std::size_t DefaultThreads();

/// Maps the CLI convention onto a concrete thread count: 0 = "pick for me"
/// (DefaultThreads), anything else is taken literally.
std::size_t ResolveThreads(std::size_t requested);

class ParallelRunner {
 public:
  /// `threads` workers at most; 0 resolves to DefaultThreads(). A Map
  /// starts no more workers than it has points, and one worker runs inline
  /// on the caller.
  explicit ParallelRunner(std::size_t threads = 1);

  /// The sub-seeding scheme: point `index` of a run seeded with `base`
  /// draws from an RNG stream seeded HashSeed(base, index). Exposed so
  /// callers (and tests) can name the contract instead of re-deriving it.
  static std::uint64_t SubSeed(std::uint64_t base_seed, std::uint64_t index);

  /// Runs fn(i) for every i in [0, count) and returns the results in index
  /// order. fn must not mutate shared state (point independence is the
  /// caller's contract; everything else is this class's).
  template <typename Fn>
  auto Map(std::size_t count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(std::is_default_constructible_v<R>,
                  "Map results are pre-sized; R needs a default ctor");
    std::vector<R> results(count);
    RunIndexed(count, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  /// Runs body(i) for i in [0, count): inline in order with one worker,
  /// sharded over a pool of min(threads_, count) workers otherwise. The
  /// first worker exception (in shard order) propagates after all shards
  /// finish.
  void RunIndexed(std::size_t count,
                  const std::function<void(std::size_t)>& body);

  std::size_t threads_ = 1;
};

}  // namespace microrec::exec
