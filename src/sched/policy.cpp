#include "sched/policy.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/status.hpp"
#include "obs/event_log.hpp"

namespace microrec::sched {

namespace {

class StaticPolicy final : public SchedulingPolicy {
 public:
  StaticPolicy(std::size_t backend_index, std::string name)
      : index_(backend_index), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  std::size_t Route(
      const SchedQuery&,
      const std::vector<std::unique_ptr<Backend>>& backends) override {
    MICROREC_CHECK(index_ < backends.size());
    return index_;
  }

 private:
  std::size_t index_;
  std::string name_;
};

class RoundRobinPolicy final : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "round-robin"; }

  std::size_t Route(
      const SchedQuery&,
      const std::vector<std::unique_ptr<Backend>>& backends) override {
    const std::size_t pick = next_ % backends.size();
    ++next_;
    return pick;
  }

 private:
  std::size_t next_ = 0;
};

class SpillPolicy final : public SchedulingPolicy {
 public:
  explicit SpillPolicy(Nanoseconds threshold_ns)
      : threshold_ns_(threshold_ns) {}

  std::string_view name() const override { return "spill"; }

  std::size_t Route(
      const SchedQuery& q,
      const std::vector<std::unique_ptr<Backend>>& backends) override {
    const bool spill = backends.size() > 1 && threshold_ns_ > 0.0 &&
                       backends[0]->QueueDepthNs(q.arrival_ns) > threshold_ns_;
    return spill ? 1 : 0;
  }

 private:
  Nanoseconds threshold_ns_;
};

/// Lowest predicted latency among accepting backends, lowest index on
/// ties. Index 0 when the whole fleet is dark (the admit then sheds).
std::size_t ArgminPredicted(
    const SchedQuery& q,
    const std::vector<std::unique_ptr<Backend>>& backends,
    std::size_t exclude = static_cast<std::size_t>(-1)) {
  std::size_t best = 0;
  bool found = false;
  Nanoseconds best_predicted = 0.0;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if (i == exclude) continue;
    if (!backends[i]->Accepting(q.arrival_ns)) continue;
    const Nanoseconds predicted = backends[i]->PredictLatency(q);
    if (!found || predicted < best_predicted) {
      best = i;
      best_predicted = predicted;
      found = true;
    }
  }
  return best;
}

class QueueDepthPolicy final : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "queue-depth"; }

  std::size_t Route(
      const SchedQuery& q,
      const std::vector<std::unique_ptr<Backend>>& backends) override {
    return ArgminPredicted(q, backends);
  }
};

// The SLO-aware gate's burn-rate controller.
constexpr std::size_t kSloWindow = 256;  // outcomes in the feedback window
constexpr double kBurnHigh = 1.0;        // shrink the gate at or above
constexpr double kBurnLow = 0.25;        // relax the gate at or below
constexpr double kGateInit = 0.4;        // fraction of the SLA
constexpr double kGateMin = 0.02;
constexpr double kGateMax = 0.6;
constexpr double kGateShrink = 0.7;
constexpr double kGateGrow = 1.05;

class SloAwarePolicy final : public SchedulingPolicy {
 public:
  explicit SloAwarePolicy(const SloAwarePolicyConfig& config)
      : config_(config), gate_(kGateInit) {
    MICROREC_CHECK(config.sla_ns > 0.0);
    MICROREC_CHECK(config.objective > 0.0 && config.objective < 1.0);
  }

  std::string_view name() const override { return "slo-aware"; }

  std::size_t Route(
      const SchedQuery& q,
      const std::vector<std::unique_ptr<Backend>>& backends) override {
    // Fast path for this query: smallest modeled service time among
    // accepting backends.
    std::size_t fast = 0;
    bool found = false;
    Nanoseconds fast_service = 0.0;
    for (std::size_t i = 0; i < backends.size(); ++i) {
      if (!backends[i]->Accepting(q.arrival_ns)) continue;
      const Nanoseconds service =
          backends[i]->cost_model().ServiceTime(q.items, q.lookups_per_item);
      if (!found || service < fast_service) {
        fast = i;
        fast_service = service;
        found = true;
      }
    }
    if (!found) return 0;  // fleet dark; the admit sheds

    // Occupancy the query itself would push the fast path to. Charging the
    // query's own service time makes large queries trip the gate first.
    const Nanoseconds load =
        backends[fast]->QueueDepthNs(q.arrival_ns) + fast_service;
    if (load / config_.sla_ns <= gate_) return fast;

    // Offload: best predicted latency anywhere else; keep the fast path
    // only if nothing else accepts.
    const std::size_t alt = ArgminPredicted(q, backends, fast);
    if (alt == fast || !backends[alt]->Accepting(q.arrival_ns)) return fast;
    return alt;
  }

  void OnOutcome(const obs::QueryOutcome& outcome) override {
    const bool bad =
        !outcome.served || outcome.latency_ns > config_.sla_ns;
    window_.push_back(bad);
    bad_in_window_ += bad ? 1 : 0;
    if (window_.size() > kSloWindow) {
      bad_in_window_ -= window_.front() ? 1 : 0;
      window_.pop_front();
    }
    const double bad_fraction = static_cast<double>(bad_in_window_) /
                                static_cast<double>(window_.size());
    const double burn = bad_fraction / (1.0 - config_.objective);
    if (burn >= kBurnHigh) {
      gate_ = std::max(kGateMin, gate_ * kGateShrink);
    } else if (burn <= kBurnLow) {
      gate_ = std::min(kGateMax, gate_ * kGateGrow);
    }
  }

 private:
  SloAwarePolicyConfig config_;
  double gate_;  ///< fast-path occupancy threshold, fraction of the SLA
  std::deque<bool> window_;
  std::uint64_t bad_in_window_ = 0;
};

}  // namespace

std::unique_ptr<SchedulingPolicy> MakeStaticPolicy(std::size_t backend_index,
                                                   std::string name) {
  return std::make_unique<StaticPolicy>(backend_index, std::move(name));
}

std::unique_ptr<SchedulingPolicy> MakeRoundRobinPolicy() {
  return std::make_unique<RoundRobinPolicy>();
}

std::unique_ptr<SchedulingPolicy> MakeSpillPolicy(Nanoseconds threshold_ns) {
  return std::make_unique<SpillPolicy>(threshold_ns);
}

std::unique_ptr<SchedulingPolicy> MakeQueueDepthPolicy() {
  return std::make_unique<QueueDepthPolicy>();
}

std::unique_ptr<SchedulingPolicy> MakeSloAwarePolicy(
    const SloAwarePolicyConfig& config) {
  return std::make_unique<SloAwarePolicy>(config);
}

void CollectBackendProbes(const SchedQuery& q,
                          const std::vector<std::unique_ptr<Backend>>& backends,
                          obs::SchedEvent& event) {
  event.probes.resize(backends.size());
  for (std::size_t b = 0; b < backends.size(); ++b) {
    obs::BackendProbe& p = event.probes[b];
    p.score_ns = backends[b]->PredictLatency(q);
    p.queue_ns = backends[b]->QueueDepthNs(q.arrival_ns);
    p.accepting = backends[b]->Accepting(q.arrival_ns);
  }
}

}  // namespace microrec::sched
