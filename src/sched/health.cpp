#include "sched/health.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace microrec::sched {

CircuitBreaker::CircuitBreaker(const CircuitBreakerConfig& config)
    : config_(config), cooldown_current_(config.cooldown_ns) {
  MICROREC_CHECK(config.failure_threshold >= 1);
  MICROREC_CHECK(config.cooldown_ns > 0.0);
  MICROREC_CHECK(config.cooldown_backoff >= 1.0);
  MICROREC_CHECK(config.max_cooldown_ns >= config.cooldown_ns);
  MICROREC_CHECK(config.half_open_probes >= 1);
  MICROREC_CHECK(config.close_threshold >= 1);
  MICROREC_CHECK(config.close_threshold <= config.half_open_probes);
}

void CircuitBreaker::TripOpen(Nanoseconds now) {
  state_ = BreakerState::kOpen;
  reopen_at_ = now + cooldown_current_;
  cooldown_current_ =
      std::min(cooldown_current_ * config_.cooldown_backoff,
               config_.max_cooldown_ns);
  ++opens_;
  Notify(BreakerState::kOpen, now, reopen_at_);
}

bool CircuitBreaker::Allow(Nanoseconds now) {
  if (state_ == BreakerState::kOpen && now >= reopen_at_) {
    state_ = BreakerState::kHalfOpen;
    trial_dispatched_ = 0;
    trial_successes_ = 0;
    Notify(BreakerState::kHalfOpen, now, 0.0);
  }
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      return false;
    case BreakerState::kHalfOpen:
      return trial_dispatched_ < config_.half_open_probes;
  }
  return false;
}

void CircuitBreaker::OnDispatch(Nanoseconds /*now*/) {
  if (state_ != BreakerState::kHalfOpen) return;
  ++trial_dispatched_;
  ++half_open_dispatches_;
}

void CircuitBreaker::OnSuccess(Nanoseconds now) {
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kOpen:
      // A straggler from before the trip; the open timer stands.
      break;
    case BreakerState::kHalfOpen:
      ++trial_successes_;
      ++half_open_successes_;
      if (trial_successes_ >= config_.close_threshold) {
        state_ = BreakerState::kClosed;
        consecutive_failures_ = 0;
        cooldown_current_ = config_.cooldown_ns;  // recovered: reset backoff
        ++closes_;
        Notify(BreakerState::kClosed, now, 0.0);
      }
      break;
  }
}

void CircuitBreaker::OnFailure(Nanoseconds now) {
  switch (state_) {
    case BreakerState::kClosed:
      ++consecutive_failures_;
      if (consecutive_failures_ >= config_.failure_threshold) {
        consecutive_failures_ = 0;
        TripOpen(now);
      }
      break;
    case BreakerState::kOpen:
      // Already open; failures while open do not extend the window (the
      // cool-down is the probe cadence, not a penalty box).
      break;
    case BreakerState::kHalfOpen:
      ++half_open_failures_;
      TripOpen(now);
      break;
  }
}

}  // namespace microrec::sched
