#include "sched/sweep.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "exec/parallel.hpp"
#include "sched/fleet.hpp"

namespace microrec::sched {

namespace {

constexpr ArrivalProcess kProcesses[kNumProcesses] = {
    ArrivalProcess::kPoisson, ArrivalProcess::kMmpp,
    ArrivalProcess::kFlashCrowd, ArrivalProcess::kDiurnal};

std::unique_ptr<SchedulingPolicy> MakeGridPolicy(
    std::size_t policy_index, const SweepGridConfig& config) {
  switch (policy_index) {
    case kPolicyStaticFpga:
      return MakeStaticPolicy(kFleetFpga, "static:fpga");
    case kPolicyStaticCpu:
      return MakeStaticPolicy(kFleetCpu, "static:cpu");
    case kPolicyStaticHotCache:
      return MakeStaticPolicy(kFleetHotCache, "static:hot_cache");
    case kPolicyStaticDegraded:
      return MakeStaticPolicy(kFleetDegraded, "static:degraded");
    case kPolicyRoundRobin:
      return MakeRoundRobinPolicy();
    case kPolicyQueueDepth:
      return MakeQueueDepthPolicy();
    case kPolicySloAware: {
      SloAwarePolicyConfig slo;
      slo.sla_ns = config.sla_ns;
      slo.objective = config.slo_objective;
      return MakeSloAwarePolicy(slo);
    }
    default:
      MICROREC_CHECK(false);
      return nullptr;
  }
}

}  // namespace

SchedSweepResult RunSchedSweep(const SweepGridConfig& config) {
  MICROREC_CHECK(config.queries >= 1);
  MICROREC_CHECK(config.qps > 0.0);
  MICROREC_CHECK(config.sla_ns > 0.0);

  // Expected run span; burst geometry and the fleet's fault windows scale
  // with it so the sweep keeps its shape at any --queries/--qps.
  const Nanoseconds span_ns =
      static_cast<double>(config.queries) / config.qps * kNanosPerSecond;

  // Per-process streams, generated serially up front and shared read-only
  // by that process's seven policy points (policies are compared on the
  // exact same queries).
  std::vector<std::vector<SchedQuery>> streams;
  streams.reserve(kNumProcesses);
  for (std::size_t pr = 0; pr < kNumProcesses; ++pr) {
    LoadGenConfig load;
    load.process = kProcesses[pr];
    load.rate_qps = config.qps;
    load.num_queries = config.queries;
    load.seed = exec::ParallelRunner::SubSeed(config.seed, pr);
    load.sizes = config.sizes;
    load.burst_dwell_mean_ns = 0.07 * span_ns;
    load.calm_dwell_mean_ns = 0.28 * span_ns;
    load.flash_start_ns = 0.30 * span_ns;
    load.flash_duration_ns = 0.20 * span_ns;
    load.diurnal_period_ns = 0.50 * span_ns;
    streams.push_back(GenerateLoad(load));
  }

  exec::ParallelRunner runner(config.threads);
  const std::size_t grid_size = kNumProcesses * kNumPolicies;
  SchedSweepResult result;
  result.records = runner.Map(grid_size, [&](std::size_t p) {
    const std::size_t process_index = p / kNumPolicies;
    const std::size_t policy_index = p % kNumPolicies;
    FleetConfig fleet_config;
    fleet_config.seed = config.seed;
    fleet_config.horizon_ns = span_ns;
    fleet_config.lookups_per_item = config.sizes.lookups_per_item;
    auto fleet = BuildStandardFleet(fleet_config);
    auto policy = MakeGridPolicy(policy_index, config);

    // The scheduled-serving loop with the whole fault-tolerance layer off.
    FtOptions ft;
    ft.base.sla_ns = config.sla_ns;
    ft.base.slo_objective = config.slo_objective;
    SweepRecord record;
    if (config.record_events && p == kRecordedGridPoint) {
      // Recorded inside the parallel map, so the log carries the same
      // thread-count identity guarantee as the reports.
      record.events = std::make_shared<obs::EventLog>();
      ft.event_log = record.events.get();
    }
    record.process = ArrivalProcessName(kProcesses[process_index]);
    record.report = SimulateFaultTolerantServing(streams[process_index], fleet,
                                                 *policy, ft)
                        .base;
    record.policy = record.report.policy;
    return record;
  });

  // Headline: per bursty process, the best static single-backend policy
  // that kept availability >= 99.9% (none may qualify when every static
  // path sheds; then the comparison falls back to all statics) versus
  // slo-aware on p99. slo-aware must itself keep availability to win.
  for (std::size_t pr = 1; pr < kNumProcesses; ++pr) {
    const SweepRecord* best = nullptr;
    for (std::size_t pol = kPolicyStaticFpga; pol <= kPolicyStaticDegraded;
         ++pol) {
      const SweepRecord& r = result.records[pr * kNumPolicies + pol];
      if (r.report.availability < 0.999) continue;
      if (best == nullptr || r.report.serving.p99 < best->report.serving.p99) {
        best = &r;
      }
    }
    if (best == nullptr) {
      for (std::size_t pol = kPolicyStaticFpga; pol <= kPolicyStaticDegraded;
           ++pol) {
        const SweepRecord& r = result.records[pr * kNumPolicies + pol];
        if (best == nullptr ||
            r.report.serving.p99 < best->report.serving.p99) {
          best = &r;
        }
      }
    }
    const SweepRecord& slo =
        result.records[pr * kNumPolicies + kPolicySloAware];
    SweepHeadline headline;
    headline.process = slo.process;
    headline.best_static = best->policy;
    headline.best_static_p99 = best->report.serving.p99;
    headline.slo_aware_p99 = slo.report.serving.p99;
    headline.slo_beats_best_static =
        slo.report.availability >= 0.999 &&
        slo.report.serving.p99 < best->report.serving.p99;
    result.slo_beats_best_static_any |= headline.slo_beats_best_static;
    result.headlines.push_back(std::move(headline));
  }
  return result;
}

}  // namespace microrec::sched
