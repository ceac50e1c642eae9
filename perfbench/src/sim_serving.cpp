// sim-serving: a fixed single-threaded simulator scenario, timed in host
// time. One repetition runs three parts on the small production model's
// placement, each with traffic taken from a run the repository already has:
//   core + memsim     SystemSimulator::Run paced at one item per initiation
//                     interval (bench_full_system's rate-matched run);
//   sched + faults    SimulateFaultTolerantServing over the standard fleet
//                     at the chaos point: chaos-sweep's default query count
//                     and rate, sched-sweep's flash-crowd window, breaker +
//                     retry + hedge, intensity 1.0;
//   update + memsim   SimulateServingWithUpdates at bench_wallclock's query
//                     rate and its 1e5 rows/s update point, so row writes
//                     interleave with lookups in the banks.
// Item and query counts are sizes, not traffic shape: each call builds one
// Zipf sampler per table before its loop (about 0.25 s on a 4-vCPU x86
// VM, at ~0.5 us per simulated query), so the update part simulates enough
// queries for its per-query loop to take most of its host time.
// Inputs come from the seed and are generated once; every repetition
// replays them, so every modelled statistic must repeat exactly -- across
// repetitions, untraced and traced alike.
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/microrec.hpp"
#include "core/system_sim.hpp"
#include "sched/chaos.hpp"
#include "sched/fault_model.hpp"
#include "sched/fleet.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/load_gen.hpp"
#include "sched/policy.hpp"
#include "update/serving_update_sim.hpp"
#include "workload/model_zoo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace sched = microrec::sched;
using microrec::Nanoseconds;

constexpr std::uint64_t kSystemItems = 200'000;
/// chaos-sweep's defaults (sched::ChaosSweepConfig).
constexpr std::uint64_t kFtQueries = sched::ChaosSweepConfig{}.queries;
constexpr double kFtQps = sched::ChaosSweepConfig{}.qps;
/// sched-sweep's flash crowd (src/sched/sweep.cpp): the surge starts at
/// 30% of the stream's span and lasts 20% of it.
constexpr double kFlashStart = 0.30;
constexpr double kFlashDuration = 0.20;
constexpr std::uint64_t kUpdateQueries = 1'000'000;
/// bench_wallclock's update section: its query rate, and the highest point
/// of its update-rate grid at which the modelled tail stays flat as the run
/// grows (at its next point, 5e5 rows/s, the banks fall behind).
constexpr double kUpdateQps = 200'000.0;
constexpr double kUpdateRowQps = 1e5;

/// The scenario's inputs, generated once from the seed.
struct Inputs {
  Nanoseconds item_gap_ns = 0.0;
  std::vector<sched::SchedQuery> ft_stream;
  sched::ChaosSweepConfig chaos;
  sched::ChaosScenario faults;
  sched::FleetConfig fleet;
  std::vector<Nanoseconds> update_arrivals;
  microrec::UpdateServingConfig update;
};

Inputs MakeInputs(const microrec::MicroRecEngine& engine, std::uint64_t seed) {
  Inputs in;
  in.item_gap_ns = engine.timing().initiation_interval_ns;

  in.chaos.queries = kFtQueries;
  in.chaos.qps = kFtQps;
  in.chaos.seed = microrec::HashSeed(seed, 2);
  in.chaos.fault_seed = microrec::HashSeed(seed, 3);
  const Nanoseconds span_ns =
      static_cast<double>(kFtQueries) / kFtQps * microrec::kNanosPerSecond;
  sched::LoadGenConfig load;
  load.process = sched::ArrivalProcess::kFlashCrowd;
  load.rate_qps = kFtQps;
  load.num_queries = kFtQueries;
  load.seed = in.chaos.seed;
  load.sizes = in.chaos.sizes;
  load.flash_start_ns = kFlashStart * span_ns;
  load.flash_duration_ns = kFlashDuration * span_ns;
  in.ft_stream = sched::GenerateLoad(load);
  in.faults = sched::BuildChaosScenario(1.0, in.chaos.fault_seed, span_ns);
  in.fleet.seed = in.chaos.seed;
  in.fleet.horizon_ns = span_ns;
  in.fleet.lookups_per_item = in.chaos.sizes.lookups_per_item;

  sched::LoadGenConfig upd;
  upd.rate_qps = kUpdateQps;
  upd.num_queries = kUpdateQueries;
  upd.seed = microrec::HashSeed(seed, 4);
  for (const auto& q : sched::GenerateLoad(upd)) {
    in.update_arrivals.push_back(q.arrival_ns);
  }
  in.update.item_latency_ns = engine.timing().item_latency_ns;
  in.update.initiation_interval_ns = engine.timing().initiation_interval_ns;
  in.update.deltas.update_row_qps = kUpdateRowQps;
  in.update.deltas.seed = microrec::HashSeed(seed, 5);
  return in;
}

/// Every modelled statistic of one repetition, printed exactly (%a), so two
/// repetitions compare as strings.
struct Modelled {
  microrec::SystemSimReport system;
  sched::FtSchedReport ft;
  std::size_t ft_outcomes = 0;
  microrec::UpdateServingReport update;

  std::string Digest() const {
    std::string s;
    char buf[64];
    auto add = [&](double v) {
      std::snprintf(buf, sizeof buf, "%a,", v);
      s += buf;
    };
    add(system.makespan_ns);
    add(system.item_latency_p50);
    add(system.item_latency_p99);
    add(system.item_latency_max);
    add(system.lookup_latency_mean);
    add(system.peak_bank_utilization);
    s += ft.ToString();
    add(ft.base.serving.p50);
    add(ft.base.serving.p99);
    add(ft.base.serving.mean);
    add(ft.base.slo.bad_fraction);
    add(static_cast<double>(ft_outcomes));
    s += update.ToString();
    add(update.serving.p50);
    add(update.serving.p99);
    add(update.staleness_p99);
    add(static_cast<double>(update.update_rows));
    add(static_cast<double>(update.update_bytes_written));
    add(update.interference_mean);
    return s;
  }

  /// The never-drop invariant and the shape checks; returns violations.
  std::uint64_t Violations() const {
    std::uint64_t bad = 0;
    if (system.items != kSystemItems) ++bad;
    if (ft.base.offered != kFtQueries) ++bad;
    if (ft.base.served + ft.base.shed != ft.base.offered) ++bad;
    if (ft.timed_out > ft.base.shed) ++bad;
    if (ft_outcomes != kFtQueries) ++bad;
    if (update.serving.queries != kUpdateQueries) ++bad;
    if (update.update_rows == 0) ++bad;
    return bad;
  }
};

/// One repetition; `host_ns` receives its host time. With a recorder, each
/// part is a span under a "sim.scenario" root.
Modelled RunScenario(const microrec::MicroRecEngine& engine,
                     const Inputs& in, SpanRecorder* rec, std::int64_t rep,
                     std::int64_t& host_ns) {
  Modelled m;
  const std::int64_t root =
      rec != nullptr ? rec->Begin("sim.scenario", -1, rep) : -1;
  const std::int64_t t0 = NowNs();
  const std::int64_t s0 =
      rec != nullptr ? rec->Begin("core.system_sim", root, rep) : -1;
  {
    microrec::SystemSimulator sim(engine);
    m.system = sim.Run(kSystemItems, in.item_gap_ns);
  }
  if (rec != nullptr) rec->End(s0);

  auto fleet = sched::WrapFleetWithFaults(sched::BuildStandardFleet(in.fleet),
                                          in.faults.schedules);
  auto policy = sched::MakeQueueDepthPolicy();
  sched::FtOptions ft = sched::ChaosFtOptions(in.chaos, /*hedge=*/true);
  std::vector<microrec::obs::QueryOutcome> outcomes;
  ft.outcomes = &outcomes;
  const std::int64_t s1 =
      rec != nullptr ? rec->Begin("sched.ft_serving", root, rep) : -1;
  m.ft = sched::SimulateFaultTolerantServing(in.ft_stream, fleet, *policy, ft);
  if (rec != nullptr) rec->End(s1);
  m.ft_outcomes = outcomes.size();

  const std::int64_t s2 =
      rec != nullptr ? rec->Begin("update.serving", root, rep) : -1;
  m.update = microrec::SimulateServingWithUpdates(
      engine.model(), engine.plan(), engine.options().platform,
      in.update_arrivals, in.update);
  if (rec != nullptr) rec->End(s2);
  host_ns = NowNs() - t0;
  if (rec != nullptr) rec->End(root);
  return m;
}

constexpr double kModelledItems =
    static_cast<double>(kSystemItems + kFtQueries + kUpdateQueries);

}  // namespace

Result RunSimServing(const RunConfig& config) {
  Result result;
  const microrec::RecModelSpec model = microrec::SmallProductionModel();
  microrec::EngineOptions options;
  options.materialize = false;

  SpanRecorder rec(1 << 16);
  std::optional<microrec::MicroRecEngine> engine;
  std::vector<double> build_s;
  // Builds the engine in place of the previous one. It runs before every
  // repetition, outside its host time, so the median set-up time samples
  // the host's speed over the whole run. False (and the run incorrect)
  // when Build fails.
  auto build = [&] {
    const std::int64_t t0 = NowNs();
    auto built = microrec::MicroRecEngine::Build(model, options);
    const std::int64_t t1 = NowNs();
    ++result.attempted;
    if (!built.ok()) {
      std::printf("sim-serving: Build failed: %s\n",
                  built.status().ToString().c_str());
      result.correct = false;
      ++result.failed;
      return false;
    }
    engine.emplace(std::move(built).value());
    rec.Add({"core.build", t0, t1, -1,
             static_cast<std::int64_t>(build_s.size())});
    build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    return true;
  };
  if (!build()) return result;
  const Inputs in = MakeInputs(*engine, config.seed);
  std::printf("sim-serving: %s placement; system sim %" PRIu64
              " items at a %.1f ns gap; FT chaos %" PRIu64
              " flash-crowd queries at %.0f q/s; update sim %" PRIu64
              " queries at %.0f q/s with %.0f row updates/s; seed %llu\n",
              model.name.c_str(), kSystemItems, in.item_gap_ns, kFtQueries,
              kFtQps, kUpdateQueries, kUpdateQps, kUpdateRowQps,
              static_cast<unsigned long long>(config.seed));

  // The first repetition is the warm-up and fixes the expected modelled
  // outputs every later repetition must reproduce.
  std::int64_t host_ns = 0;
  const Modelled first = RunScenario(*engine, in, nullptr, -1, host_ns);
  const std::string expected = first.Digest();
  auto check = [&](const Modelled& m) {
    result.attempted += 3;  // three simulator calls
    std::uint64_t bad = m.Violations();
    if (m.Digest() != expected) ++bad;
    result.failed += std::min<std::uint64_t>(bad, 3);
  };
  check(first);

  const std::int64_t stop =
      NowNs() + static_cast<std::int64_t>(config.seconds * 1e9);
  if (!config.trace) {
    std::vector<double> qps, lat_us;
    while (NowNs() < stop || lat_us.size() < 2) {
      if (!build()) return result;
      check(RunScenario(*engine, in, nullptr, -1, host_ns));
      qps.push_back(kModelledItems / (static_cast<double>(host_ns) / 1e9));
      lat_us.push_back(static_cast<double>(host_ns) / 1e3);
    }
    std::printf("sim-serving: %zu repetitions; latency is host time per "
                "repetition\n",
                lat_us.size());
    result.Add("setup_s", MidMean(build_s), "s");
    result.Add("rss_peak_mib", PeakRssMiB(), "MiB");
    result.Add("throughput_qps", Median(qps), "1/s");
    result.Add("latency_p50_us", Percentile(lat_us, 50.0), "us");
    return result;
  }

  // Traced run: repetitions alternate between untraced (the overhead
  // baseline, under the same host conditions) and traced.
  std::vector<double> untraced_us;
  for (std::int64_t rep = 0; NowNs() < stop || rep < 4; ++rep) {
    if (!build()) return result;
    check(RunScenario(*engine, in, rep % 2 == 0 ? nullptr : &rec, rep, host_ns));
    if (rep % 2 == 0) untraced_us.push_back(static_cast<double>(host_ns) / 1e3);
  }

  const auto& spans = rec.spans();
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  auto per_unit = [&](const char* name, double units) {
    std::vector<double> v = DurationsUs(spans, name);
    for (double& x : v) x = x * 1e3 / units;  // ns per unit
    return Summarize(v);
  };
  const Summary system = per_unit("core.system_sim", kSystemItems);
  const Summary ft = per_unit("sched.ft_serving", kFtQueries);
  const Summary update = per_unit("update.serving", kUpdateQueries);
  const Summary scenario = Summarize(DurationsUs(spans, "sim.scenario"));
  const Summary residual = Summarize(SelfTimesUs(spans, self, "sim.scenario"));
  const double total_us = scenario.mean;
  std::printf("sim-serving traced: %zu repetitions; host-time share: system "
              "sim %.1f%%, FT serving %.1f%%, update sim %.1f%%, residual "
              "%.1f%%; tail is p%g\n",
              scenario.n, 100.0 * system.mean * kSystemItems / 1e3 / total_us,
              100.0 * ft.mean * kFtQueries / 1e3 / total_us,
              100.0 * update.mean * kUpdateQueries / 1e3 / total_us,
              100.0 * residual.mean / total_us, scenario.tail_pct);
  std::printf("sim-serving modelled (identical on every repetition): item p99 "
              "%.1f ns; FT p99 %.1f ns, goodput %.6f; update p99 %.1f ns, "
              "%" PRIu64 " rows written\n",
              first.system.item_latency_p99, first.ft.base.serving.p99,
              1.0 - first.ft.base.slo.bad_fraction, first.update.serving.p99,
              first.update.update_rows);

  result.Add("core.build_ms", MidMean(build_s) * 1e3, "ms");
  result.Add("core.system_sim_ns_per_item.p50", system.p50, "ns");
  result.Add("core.system_sim_ns_per_item.tail", system.tail, "ns");
  result.Add("sched.ft_ns_per_query.p50", ft.p50, "ns");
  result.Add("sched.ft_ns_per_query.tail", ft.tail, "ns");
  result.Add("update.ns_per_query.p50", update.p50, "ns");
  result.Add("update.ns_per_query.tail", update.tail, "ns");
  result.Add("sim.residual_us.p50", residual.p50, "us");
  result.Add("core.model_item_p99_us", first.system.item_latency_p99 / 1e3,
             "us");
  result.Add("sched.model_p99_us", first.ft.base.serving.p99 / 1e3, "us");
  result.Add("sched.model_goodput", 1.0 - first.ft.base.slo.bad_fraction,
             "ratio");
  result.Add("update.model_p99_us", first.update.serving.p99 / 1e3, "us");
  result.Add("update.rows_written",
             static_cast<double>(first.update.update_rows), "count");
  result.Add("trace.overhead_frac", scenario.p50 / Median(untraced_us) - 1.0,
             "ratio");
  result.Add("trace.spans", static_cast<double>(spans.size()), "count");
  if (!WriteTrace(config, rec)) result.correct = false;
  return result;
}

}  // namespace perfbench
