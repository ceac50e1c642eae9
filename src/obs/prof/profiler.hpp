// Hardware profiler: phase-attributed counter accumulation over real
// execution, the measured-side sibling of SpanTracer (which attributes
// simulated time).
//
// A HwProfiler owns one CounterGroup and a table of named phases. Code
// under measurement brackets a phase with a ProfScope -- an RAII guard
// that snapshots the group at construction and accumulates the scaled
// delta into the phase at destruction, so attribution survives early
// returns and exceptions. Phases nest inclusively: an outer scope's
// totals include its inner scopes' intervals (the CLI reports phases
// against the batch total, which is its own phase).
//
// Identity discipline (same contract as SpanTracer/EventLog, enforced in
// prof_test and zero_alloc_test): with no profiler attached -- a nullptr
// HwProfiler* -- a ProfScope is a single pointer test, performs no
// allocation, reads no clock, and the instrumented code's outputs are
// bit-identical to un-instrumented execution. With a profiler attached
// the instrumentation only *reads* counters and clocks around phases;
// it never feeds back into the computation, so outputs stay
// bit-identical on every backend tier.
//
// Counters count the calling thread (see counters.hpp): run the engine
// single-threaded while profiling for exact attribution, or treat the
// counter columns as calling-thread-only.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/prof/counters.hpp"

namespace microrec::obs::prof {

/// Accumulated totals for one named phase.
struct PhaseStats {
  std::uint64_t calls = 0;
  CounterDelta totals;  ///< scaled counter sums + wall_ns over all calls
  /// Work declared by the instrumentation site (AddPhaseWork), the
  /// denominators of the achieved GB/s / GOP/s and the arithmetic
  /// intensity the roofline classifies.
  double bytes = 0.0;
  double flops = 0.0;
};

struct ProfilerOptions {
  /// Requested backend tier. kPerfEvent degrades to kTimer when the
  /// syscall is unavailable; kTimer and kNull are honored exactly.
  ProfBackend backend = ProfBackend::kPerfEvent;
};

class HwProfiler {
 public:
  explicit HwProfiler(ProfilerOptions opts = {});

  /// The tier actually in use (after any degradation).
  ProfBackend backend() const { return group_.backend(); }
  const CounterGroup& group() const { return group_; }
  bool multiplexing_seen() const { return group_.multiplexing_seen(); }

  /// Accumulates one measured interval into `phase` (ProfScope's exit
  /// path; also callable directly with synthetic deltas in tests).
  void AddPhaseSample(std::string_view phase, const CounterDelta& delta);

  /// Adds declared data volume / op count to `phase` (the instrumentation
  /// site knows the shapes; counters cannot recover logical bytes).
  void AddPhaseWork(std::string_view phase, double bytes, double flops);

  /// Records one end-to-end batch latency into the percentile histogram.
  void RecordBatch(Nanoseconds wall_ns) { batch_latency_.Observe(wall_ns); }

  const std::map<std::string, PhaseStats, std::less<>>& phases() const {
    return phases_;
  }
  const Histogram& batch_latency() const { return batch_latency_; }

  /// Snapshot used by ProfScope; public so call sites can bracket phases
  /// manually when RAII does not fit.
  GroupReading ReadCounters() const { return group_.Read(); }

 private:
  CounterGroup group_;
  std::map<std::string, PhaseStats, std::less<>> phases_;
  Histogram batch_latency_;
};

/// RAII phase guard. A nullptr profiler makes every member a no-op (one
/// branch, no clock read, no allocation) -- the disabled-path identity
/// contract. Non-copyable, non-movable: scopes mirror lexical nesting.
class ProfScope {
 public:
  ProfScope(HwProfiler* prof, std::string_view phase) : prof_(prof) {
    if (prof_ == nullptr) return;
    phase_ = phase;
    begin_ = prof_->ReadCounters();
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  ~ProfScope() {
    if (prof_ == nullptr) return;
    prof_->AddPhaseSample(phase_, DeltaScaled(begin_, prof_->ReadCounters()));
  }

 private:
  HwProfiler* prof_;
  std::string_view phase_;
  GroupReading begin_;
};

}  // namespace microrec::obs::prof
