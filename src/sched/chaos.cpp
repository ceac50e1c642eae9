#include "sched/chaos.hpp"

#include <algorithm>
#include <utility>

#include "common/status.hpp"
#include "exec/parallel.hpp"
#include "sched/fault_model.hpp"
#include "sched/fleet.hpp"
#include "sched/policy.hpp"

namespace microrec::sched {

namespace {

/// Statics a given intensity's headline compares p99 against must have
/// kept availability; a path that shed most of the stream has a
/// meaninglessly small tail. Same bar RunSchedSweep uses.
constexpr double kAvailabilityBar = 0.999;

void AddEvent(FaultSchedule& schedule, FaultKind kind, Nanoseconds start_ns,
              Nanoseconds end_ns, std::uint32_t target, double magnitude) {
  FaultEvent event;
  event.kind = kind;
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  event.target = target;
  event.magnitude = magnitude;
  MICROREC_CHECK(schedule.Add(event).ok());
}

std::unique_ptr<SchedulingPolicy> MakeChaosRoutingPolicy(
    std::size_t policy_index) {
  switch (policy_index) {
    case kChaosStaticFpga:
      return MakeStaticPolicy(kFleetFpga, "static:fpga");
    case kChaosStaticCpu:
      return MakeStaticPolicy(kFleetCpu, "static:cpu");
    case kChaosStaticHotCache:
      return MakeStaticPolicy(kFleetHotCache, "static:hot_cache");
    case kChaosStaticDegraded:
      return MakeStaticPolicy(kFleetDegraded, "static:degraded");
    case kChaosQueueDepth:
    case kChaosBreakerRetry:
    case kChaosBreakerRetryHedge:
      // The fault-tolerant points route by queue depth too: the headline
      // then isolates what the breakers/retries/hedges add on top of the
      // same routing signal.
      return MakeQueueDepthPolicy();
    default:
      MICROREC_CHECK(false);
      return nullptr;
  }
}

double Goodput(const ChaosRecord& record) {
  return 1.0 - record.report.base.slo.bad_fraction;
}

}  // namespace

const char* ChaosPolicyName(std::size_t policy_index) {
  switch (policy_index) {
    case kChaosStaticFpga:
      return "static:fpga";
    case kChaosStaticCpu:
      return "static:cpu";
    case kChaosStaticHotCache:
      return "static:hot_cache";
    case kChaosStaticDegraded:
      return "static:degraded";
    case kChaosQueueDepth:
      return "queue-depth";
    case kChaosBreakerRetry:
      return "breaker-retry";
    case kChaosBreakerRetryHedge:
      return "breaker-retry-hedge";
    default:
      MICROREC_CHECK(false);
      return "";
  }
}

ChaosScenario BuildChaosScenario(double intensity, std::uint64_t fault_seed,
                                 Nanoseconds horizon_ns) {
  MICROREC_CHECK(intensity >= 0.0 && intensity <= 1.0);
  MICROREC_CHECK(horizon_ns > 0.0);

  ChaosScenario scenario;
  scenario.schedules.resize(kFleetSize);
  if (intensity <= 0.0) return scenario;  // all empty: healthy fleet

  const Nanoseconds h = horizon_ns;
  const double s = intensity;

  // The three blessed windows. Starts are fixed fractions of the horizon,
  // widths (and the brownout's slowdown) scale with intensity; they
  // overlap pairwise in the middle of the run but never all at once.
  const Nanoseconds crash_start = 0.30 * h;
  const Nanoseconds crash_end = (0.30 + 0.25 * s) * h;
  AddEvent(scenario.schedules[kFleetFpga], FaultKind::kReplicaCrash,
           crash_start, crash_end, static_cast<std::uint32_t>(kFleetFpga),
           1.0);
  scenario.windows.push_back({"fpga-crash", crash_start, crash_end});

  const Nanoseconds brown_start = 0.20 * h;
  const Nanoseconds brown_end = (0.20 + 0.45 * s) * h;
  AddEvent(scenario.schedules[kFleetCpu], FaultKind::kChannelDegrade,
           brown_start, brown_end, static_cast<std::uint32_t>(kFleetCpu),
           1.0 + 3.0 * s);
  scenario.windows.push_back({"cpu-brownout", brown_start, brown_end});

  const Nanoseconds stall_start = 0.55 * h;
  const Nanoseconds stall_end = (0.55 + 0.10 * s) * h;
  AddEvent(scenario.schedules[kFleetHotCache], FaultKind::kDmaStall,
           stall_start, stall_end,
           static_cast<std::uint32_t>(kFleetHotCache), 1.0);
  scenario.windows.push_back({"cache-stall", stall_start, stall_end});

  // Low-rate seeded brownout noise on every backend (~2 expected events
  // each at full intensity), mild enough that the blessed windows stay
  // the story. The generator emits bank-0 events; re-target them to the
  // backend the schedule drives.
  const double horizon_s = h / kNanosPerSecond;
  for (std::size_t b = 0; b < kFleetSize; ++b) {
    FaultScheduleConfig noise;
    noise.seed = exec::ParallelRunner::SubSeed(fault_seed, b);
    noise.horizon_ns = h;
    noise.num_banks = 1;
    noise.channel_degrade_per_s = 2.0 * s / horizon_s;
    noise.channel_degrade_mean_ns = 0.01 * h;
    noise.degrade_multiplier_min = 1.2;
    noise.degrade_multiplier_max = 1.8;
    const FaultSchedule generated = GenerateFaultSchedule(noise).value();
    for (FaultEvent event : generated.events()) {
      event.target = static_cast<std::uint32_t>(b);
      MICROREC_CHECK(scenario.schedules[b].Add(event).ok());
    }
  }
  return scenario;
}

FtOptions ChaosFtOptions(const ChaosSweepConfig& config, bool hedge) {
  // Every time constant hangs off the SLA so the configuration keeps its
  // shape at any --queries/--qps/--sla-us.
  FtOptions ft;
  ft.base.sla_ns = config.sla_ns;
  ft.base.slo_objective = config.slo_objective;
  ft.deadline_ns = 2.0 * config.sla_ns;

  ft.breakers_enabled = true;
  ft.breaker.failure_threshold = 3;
  ft.breaker.cooldown_ns = 0.25 * config.sla_ns;
  ft.breaker.cooldown_backoff = 2.0;
  ft.breaker.max_cooldown_ns = 4.0 * config.sla_ns;
  ft.breaker.half_open_probes = 4;
  ft.breaker.close_threshold = 2;
  ft.probe_interval_ns = 0.025 * config.sla_ns;

  ft.retries_enabled = true;
  ft.retry.max_attempts = 3;
  ft.retry.attempt_timeout_ns = config.sla_ns;
  ft.retry.initial_backoff_ns = 0.05 * config.sla_ns;
  ft.retry.backoff_multiplier = 2.0;
  ft.retry.max_backoff_ns = 0.5 * config.sla_ns;

  ft.hedge.enabled = hedge;
  ft.hedge.quantile = 0.99;
  ft.hedge.delay_scale = 1.0;
  ft.hedge.min_delay_ns = 0.1 * config.sla_ns;
  ft.hedge.min_history = 64;

  ft.high_priority_max_items = config.sizes.small_items;
  return ft;
}

ChaosSweepResult RunChaosSweep(const ChaosSweepConfig& config) {
  MICROREC_CHECK(config.queries >= 1);
  MICROREC_CHECK(config.qps > 0.0);
  MICROREC_CHECK(config.sla_ns > 0.0);
  MICROREC_CHECK(config.intensity_max >= 0.0 && config.intensity_max <= 1.0);
  MICROREC_CHECK(config.intensity_points >= 1);

  const Nanoseconds span_ns =
      static_cast<double>(config.queries) / config.qps * kNanosPerSecond;

  std::vector<double> intensities;
  intensities.reserve(config.intensity_points);
  if (config.intensity_points == 1) {
    intensities.push_back(config.intensity_max);
  } else {
    for (std::size_t i = 0; i < config.intensity_points; ++i) {
      intensities.push_back(config.intensity_max * static_cast<double>(i) /
                            static_cast<double>(config.intensity_points - 1));
    }
  }

  // One Poisson stream, generated up front and shared read-only: every
  // grid point serves the exact same queries, so differences are the
  // faults and the policy, nothing else.
  LoadGenConfig load;
  load.process = ArrivalProcess::kPoisson;
  load.rate_qps = config.qps;
  load.num_queries = config.queries;
  load.seed = config.seed;
  load.sizes = config.sizes;
  const std::vector<SchedQuery> stream = GenerateLoad(load);

  // Scenarios are deterministic per intensity; build them serially once
  // and copy into each point's wrappers.
  std::vector<ChaosScenario> scenarios;
  scenarios.reserve(intensities.size());
  for (double s : intensities) {
    scenarios.push_back(
        BuildChaosScenario(s, config.fault_seed, span_ns));
  }

  exec::ParallelRunner runner(config.threads);
  const std::size_t grid_size = intensities.size() * kNumChaosPolicies;
  ChaosSweepResult result;
  result.records = runner.Map(grid_size, [&](std::size_t p) {
    const std::size_t intensity_index = p / kNumChaosPolicies;
    const std::size_t policy_index = p % kNumChaosPolicies;
    const ChaosScenario& scenario = scenarios[intensity_index];

    FleetConfig fleet_config;
    fleet_config.seed = config.seed;
    fleet_config.horizon_ns = span_ns;
    fleet_config.lookups_per_item = config.sizes.lookups_per_item;
    auto fleet = WrapFleetWithFaults(BuildStandardFleet(fleet_config),
                                     scenario.schedules);
    auto policy = MakeChaosRoutingPolicy(policy_index);

    FtOptions ft;
    if (policy_index == kChaosBreakerRetry) {
      ft = ChaosFtOptions(config, /*hedge=*/false);
    } else if (policy_index == kChaosBreakerRetryHedge) {
      ft = ChaosFtOptions(config, /*hedge=*/true);
    } else {
      // Statics and plain queue-depth run the same event loop with the
      // whole fault-tolerance layer off.
      ft.base.sla_ns = config.sla_ns;
      ft.base.slo_objective = config.slo_objective;
    }
    std::vector<obs::QueryOutcome> outcomes;
    ft.outcomes = &outcomes;

    ChaosRecord record;
    record.intensity = intensities[intensity_index];
    record.policy = ChaosPolicyName(policy_index);
    if (config.record_events &&
        intensity_index + 1 == intensities.size() &&
        policy_index == kChaosBreakerRetryHedge) {
      // Flight-record the blessed point, inside the parallel map so the
      // recorded log carries the same thread-count identity guarantee as
      // the reports. Fault windows are fixed up front; pre-register them
      // so the export interleaves them with the decisions they caused.
      record.events = std::make_shared<obs::EventLog>();
      for (std::size_t b = 0; b < scenario.schedules.size(); ++b) {
        AppendFaultWindowEvents(scenario.schedules[b], b, *record.events);
      }
      ft.event_log = record.events.get();
    }
    record.report = SimulateFaultTolerantServing(stream, fleet, *policy, ft);

    obs::RecoveryOptions recovery;
    recovery.sla_ns = config.sla_ns;
    recovery.objective = config.slo_objective;
    recovery.recovery_window_ns = 0.05 * span_ns;
    record.recovery =
        obs::EvaluateRecovery(recovery, outcomes, scenario.windows,
                              &record.report.hedge_win_arrival_ns);
    return record;
  });

  // Per-intensity headline for every faulted point; the acceptance
  // headline is the one at the highest intensity.
  for (std::size_t i = 0; i < intensities.size(); ++i) {
    if (intensities[i] <= 0.0) continue;
    const ChaosRecord* records = &result.records[i * kNumChaosPolicies];
    const ChaosRecord& ft = records[kChaosBreakerRetryHedge];

    ChaosHeadline headline;
    headline.intensity = intensities[i];
    headline.ft_p99 = ft.report.base.serving.p99;
    headline.ft_goodput = Goodput(ft);
    headline.ft_recovered =
        !ft.recovery.windows.empty() && ft.recovery.all_recovered;

    const ChaosRecord* best = nullptr;
    headline.ft_beats_all_static_p99 = true;
    headline.ft_beats_all_static_goodput = true;
    for (std::size_t pol = kChaosStaticFpga; pol <= kChaosStaticDegraded;
         ++pol) {
      const ChaosRecord& r = records[pol];
      headline.best_static_goodput =
          std::max(headline.best_static_goodput, Goodput(r));
      if (Goodput(ft) <= Goodput(r)) {
        headline.ft_beats_all_static_goodput = false;
      }
      if (!r.recovery.all_recovered) {
        headline.some_static_never_recovered = true;
      }
      // p99 only means something for a static that kept availability; a
      // path that shed most of the stream is compared on goodput alone.
      if (r.report.base.availability < kAvailabilityBar) continue;
      if (headline.ft_p99 >= r.report.base.serving.p99) {
        headline.ft_beats_all_static_p99 = false;
      }
      if (best == nullptr ||
          r.report.base.serving.p99 < best->report.base.serving.p99) {
        best = &r;
      }
    }
    if (best == nullptr) {
      for (std::size_t pol = kChaosStaticFpga; pol <= kChaosStaticDegraded;
           ++pol) {
        const ChaosRecord& r = records[pol];
        if (best == nullptr || Goodput(r) > Goodput(*best)) best = &r;
      }
    }
    headline.best_static = best->policy;
    headline.best_static_p99 = best->report.base.serving.p99;

    headline.win = headline.ft_beats_all_static_p99 &&
                   headline.ft_beats_all_static_goodput &&
                   headline.ft_recovered &&
                   headline.some_static_never_recovered;
    if (i + 1 == intensities.size()) result.headline_win = headline.win;
    result.headlines.push_back(std::move(headline));
  }
  return result;
}

}  // namespace microrec::sched
