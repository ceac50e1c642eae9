// Per-backend health tracking: closed / open / half-open circuit breakers
// with deterministic cool-down.
//
// The breaker is the scheduler's memory of a backend's recent failures.
// Closed is the healthy state; `failure_threshold` consecutive failures
// (failed health probes, attempt timeouts, rejected admits) trip it open.
// An open breaker blocks admissions for a cool-down, then transitions to
// half-open on the first Allow() at or past the reopen time; half-open
// admits up to `half_open_probes` trial queries, closing after
// `close_threshold` of them succeed and re-opening -- with the cool-down
// multiplied by `cooldown_backoff`, capped at `max_cooldown_ns` -- on the
// first trial failure. Everything is driven by caller-supplied simulated
// times, so a breaker run replays bit for bit.
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.hpp"

namespace microrec::sched {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct CircuitBreakerConfig {
  /// Consecutive failures that trip a closed breaker open.
  std::uint32_t failure_threshold = 3;
  /// First cool-down after tripping open.
  Nanoseconds cooldown_ns = Microseconds(500);
  /// Cool-down multiplier applied on each re-open from half-open.
  double cooldown_backoff = 2.0;
  Nanoseconds max_cooldown_ns = Milliseconds(8);
  /// Trial admissions allowed while half-open.
  std::uint32_t half_open_probes = 4;
  /// Trial successes that close a half-open breaker.
  std::uint32_t close_threshold = 2;
};

class CircuitBreaker {
 public:
  /// Observer for state transitions: called with the state entered, the
  /// simulated time of the transition, and -- entering open -- the reopen
  /// time (0 otherwise). Purely observational: listeners see transitions
  /// after the breaker's own bookkeeping and must not call back into it.
  using TransitionListener =
      std::function<void(BreakerState to, Nanoseconds now,
                         Nanoseconds reopen_at_ns)>;

  explicit CircuitBreaker(const CircuitBreakerConfig& config = {});

  /// Installs (or clears, with an empty function) the transition
  /// observer. The scheduler's flight recorder hooks in here; with no
  /// listener the breaker behaves identically.
  void set_transition_listener(TransitionListener listener) {
    listener_ = std::move(listener);
  }

  BreakerState state() const { return state_; }
  /// Meaningful while open: the time the breaker turns half-open.
  Nanoseconds reopen_at_ns() const { return reopen_at_; }

  /// Advances open -> half-open when the cool-down has elapsed, then
  /// reports whether an admission may be dispatched at `now`: closed
  /// always, half-open while trial slots remain, open never.
  bool Allow(Nanoseconds now);

  /// Records an actually-dispatched admission; consumes one half-open
  /// trial slot (no-op in other states).
  void OnDispatch(Nanoseconds now);

  /// A dispatched admission completed in time.
  void OnSuccess(Nanoseconds now);

  /// A failure signal: failed health probe, attempt timeout, or rejected
  /// admit. May trip the breaker open.
  void OnFailure(Nanoseconds now);

  // ---- Accounting (cumulative over the breaker's lifetime) ----
  std::uint64_t opens() const { return opens_; }
  std::uint64_t closes() const { return closes_; }
  std::uint64_t half_open_dispatches() const { return half_open_dispatches_; }
  std::uint64_t half_open_successes() const { return half_open_successes_; }
  std::uint64_t half_open_failures() const { return half_open_failures_; }

 private:
  void TripOpen(Nanoseconds now);
  void Notify(BreakerState to, Nanoseconds now, Nanoseconds reopen_at_ns) {
    if (listener_) listener_(to, now, reopen_at_ns);
  }

  TransitionListener listener_;
  CircuitBreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  Nanoseconds cooldown_current_ = 0.0;
  Nanoseconds reopen_at_ = 0.0;
  // Half-open trial window counters (reset on every open -> half-open).
  std::uint32_t trial_dispatched_ = 0;
  std::uint32_t trial_successes_ = 0;
  // Lifetime accounting.
  std::uint64_t opens_ = 0;
  std::uint64_t closes_ = 0;
  std::uint64_t half_open_dispatches_ = 0;
  std::uint64_t half_open_successes_ = 0;
  std::uint64_t half_open_failures_ = 0;
};

}  // namespace microrec::sched
