// Tests for the fault-injection subsystem (src/faults/) and the shared
// retry policy:
//   * schedules validate their events and generate deterministically;
//   * failover routing never silently drops a lookup -- every lookup lands
//     on a live bank or is counted as shed;
//   * retry backoff grows geometrically up to its cap;
//   * degraded serving -- a fault-aware sched::PipelineBackend run by the
//     event-loop scheduler with its fault-tolerance layer off -- is
//     field-for-field identical to the fault-free simulator at zero
//     faults, and sheds only what crashes, lost tables and the admission
//     bound force it to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "faults/failover.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/retry.hpp"
#include "memsim/hybrid_memory.hpp"
#include "placement/replication.hpp"
#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/policy.hpp"
#include "serving/scaleout.hpp"
#include "serving/serving_sim.hpp"
#include "workload/model_zoo.hpp"

namespace microrec {
namespace {

FaultEvent Event(FaultKind kind, Nanoseconds start, Nanoseconds end,
                 std::uint32_t target = 0, double magnitude = 1.0) {
  FaultEvent e;
  e.kind = kind;
  e.start_ns = start;
  e.end_ns = end;
  e.target = target;
  e.magnitude = magnitude;
  return e;
}

/// Serves single-item queries at `arrivals` on one pipeline pool, routed
/// by the event-loop scheduler with its fault-tolerance layer off (the
/// shape `microrec fault-sweep` runs).
sched::SchedReport ServeOnPool(const std::vector<Nanoseconds>& arrivals,
                               const sched::PipelineBackendConfig& config) {
  std::vector<sched::SchedQuery> queries;
  for (std::uint64_t i = 0; i < arrivals.size(); ++i) {
    queries.push_back(sched::SchedQuery{i, arrivals[i], 1, 1});
  }
  std::vector<std::unique_ptr<sched::Backend>> fleet;
  fleet.push_back(std::make_unique<sched::PipelineBackend>(config));
  const auto policy = sched::MakeStaticPolicy(0, "static:pool");
  sched::FtOptions options;
  options.base.sla_ns = Milliseconds(30);
  return sched::SimulateFaultTolerantServing(queries, fleet, *policy, options)
      .base;
}

// ---------------------------------------------------------------- Schedule

TEST(FaultScheduleTest, AddValidatesWindows) {
  FaultSchedule schedule;
  EXPECT_FALSE(
      schedule.Add(Event(FaultKind::kChannelFail, 10.0, 10.0)).ok());
  EXPECT_FALSE(
      schedule.Add(Event(FaultKind::kChannelFail, 10.0, 5.0)).ok());
  EXPECT_FALSE(
      schedule.Add(Event(FaultKind::kChannelFail, -1.0, 5.0)).ok());
  // A degrade multiplier below 1 would turn a fault into a speedup.
  EXPECT_FALSE(
      schedule.Add(Event(FaultKind::kChannelDegrade, 0.0, 5.0, 0, 0.5)).ok());
  EXPECT_TRUE(
      schedule.Add(Event(FaultKind::kChannelDegrade, 0.0, 5.0, 0, 2.0)).ok());
  EXPECT_EQ(schedule.events().size(), 1u);
}

TEST(FaultScheduleTest, PointQueriesRespectWindows) {
  FaultSchedule schedule;
  ASSERT_TRUE(
      schedule.Add(Event(FaultKind::kChannelFail, 100.0, 200.0, 3)).ok());
  ASSERT_TRUE(
      schedule.Add(Event(FaultKind::kChannelDegrade, 0.0, 50.0, 1, 2.0)).ok());
  ASSERT_TRUE(
      schedule.Add(Event(FaultKind::kChannelDegrade, 0.0, 50.0, 1, 3.0)).ok());
  ASSERT_TRUE(
      schedule.Add(Event(FaultKind::kReplicaCrash, 10.0, 20.0, 0)).ok());
  ASSERT_TRUE(schedule.Add(Event(FaultKind::kDmaStall, 40.0, 90.0)).ok());

  // Closed-open interval: failed at start, recovered at end.
  EXPECT_TRUE(schedule.BankAvailable(3, 99.0));
  EXPECT_FALSE(schedule.BankAvailable(3, 100.0));
  EXPECT_FALSE(schedule.BankAvailable(3, 199.0));
  EXPECT_TRUE(schedule.BankAvailable(3, 200.0));
  EXPECT_TRUE(schedule.BankAvailable(4, 150.0));  // other banks untouched

  // Overlapping degrades multiply; outside the window the bank is exact 1.
  EXPECT_DOUBLE_EQ(schedule.BankLatencyMultiplier(1, 25.0), 6.0);
  EXPECT_EQ(schedule.BankLatencyMultiplier(1, 60.0), 1.0);
  EXPECT_EQ(schedule.BankLatencyMultiplier(0, 25.0), 1.0);

  EXPECT_FALSE(schedule.ReplicaAlive(0, 15.0));
  EXPECT_TRUE(schedule.ReplicaAlive(0, 25.0));
  EXPECT_TRUE(schedule.ReplicaAlive(1, 15.0));

  EXPECT_EQ(schedule.StallEnd(0, 50.0), 90.0);
  EXPECT_EQ(schedule.StallEnd(0, 95.0), 95.0);  // healthy: returns now
}

TEST(FaultScheduleTest, FailChannelsIsPermanent) {
  const FaultSchedule schedule = FaultSchedule::FailChannels({2, 7});
  EXPECT_FALSE(schedule.BankAvailable(2, 0.0));
  EXPECT_FALSE(schedule.BankAvailable(7, 1e15));
  EXPECT_TRUE(schedule.BankAvailable(3, 1e15));
}

TEST(FaultScheduleTest, GenerationIsDeterministic) {
  FaultScheduleConfig config;
  config.seed = 99;
  config.horizon_ns = Milliseconds(200);
  config.num_banks = 8;
  config.channel_fail_per_s = 50.0;
  config.channel_degrade_per_s = 80.0;
  config.num_replicas = 4;
  config.replica_crash_per_s = 30.0;
  config.dma_stall_per_s = 20.0;

  const auto a = GenerateFaultSchedule(config).value();
  const auto b = GenerateFaultSchedule(config).value();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].start_ns, b.events()[i].start_ns);
    EXPECT_EQ(a.events()[i].end_ns, b.events()[i].end_ns);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }

  FaultScheduleConfig other = config;
  other.seed = 100;
  const auto c = GenerateFaultSchedule(other).value();
  bool identical = a.events().size() == c.events().size();
  for (std::size_t i = 0; identical && i < a.events().size(); ++i) {
    identical = a.events()[i].start_ns == c.events()[i].start_ns;
  }
  EXPECT_FALSE(identical);
}

TEST(FaultScheduleTest, CategoriesDrawFromIndependentStreams) {
  // Turning replica crashes on must not perturb the channel-fail stream:
  // each (kind, target) pair has its own sub-seeded generator.
  FaultScheduleConfig base;
  base.seed = 7;
  base.horizon_ns = Milliseconds(100);
  base.num_banks = 4;
  base.channel_fail_per_s = 100.0;

  FaultScheduleConfig with_crashes = base;
  with_crashes.num_replicas = 2;
  with_crashes.replica_crash_per_s = 200.0;

  auto fails_of = [](const FaultSchedule& s) {
    std::vector<FaultEvent> fails;
    for (const auto& e : s.events()) {
      if (e.kind == FaultKind::kChannelFail) fails.push_back(e);
    }
    return fails;
  };
  const auto a = fails_of(GenerateFaultSchedule(base).value());
  const auto b = fails_of(GenerateFaultSchedule(with_crashes).value());
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_ns, b[i].start_ns);
    EXPECT_EQ(a[i].target, b[i].target);
  }
}

TEST(FaultScheduleTest, EmptyConfigGeneratesEmptySchedule) {
  FaultScheduleConfig config;
  config.horizon_ns = Milliseconds(100);
  config.num_banks = 32;
  config.num_replicas = 4;  // all rates zero
  EXPECT_TRUE(GenerateFaultSchedule(config).value().empty());
}

// ---------------------------------------------------------------- Failover

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = DlrmRmc2Model(8, 32);
    platform_ = MemoryPlatformSpec::AlveoU280();
    ReplicationOptions options;
    options.lookups_per_table = model_.lookups_per_table;
    options.max_replicas = 2;
    options.availability_replicas = 2;
    plan_ = ReplicateAndPlace(model_.tables, platform_, options).value();
  }

  RecModelSpec model_;
  MemoryPlatformSpec platform_;
  ReplicationPlan plan_;
};

TEST_F(FailoverTest, HealthyRoutingMatchesPlanExactly) {
  const FailoverRouter router(&plan_, nullptr);
  const auto routed = router.Route(model_.lookups_per_table, 0.0);
  const auto expected = plan_.ToBankAccesses(model_.lookups_per_table);
  EXPECT_EQ(routed.shed_lookups, 0u);
  EXPECT_TRUE(routed.fully_servable());
  ASSERT_EQ(routed.accesses.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(routed.accesses[i].bank, expected[i].bank);
    EXPECT_EQ(routed.accesses[i].bytes, expected[i].bytes);
  }
  std::vector<Nanoseconds> bank_ns;
  EXPECT_DOUBLE_EQ(
      router.DegradedLookupLatency(routed, platform_, 0.0, bank_ns),
      plan_.lookup_latency_ns);
}

TEST_F(FailoverTest, EveryLookupLandsOnLiveBankOrIsShed) {
  // Kill every second HBM channel the plan uses; whatever survives must
  // absorb the re-routed lookups, and the totals must balance exactly --
  // a lookup is either routed to a live bank or counted as shed, never
  // silently dropped.
  std::vector<std::uint32_t> victims;
  for (const auto& table : plan_.tables) {
    if (table.banks[0] < platform_.hbm_channels && victims.size() % 2 == 0) {
      victims.push_back(table.banks[0]);
    }
  }
  ASSERT_FALSE(victims.empty());
  const FaultSchedule schedule = FaultSchedule::FailChannels(victims);
  const FailoverRouter router(&plan_, &schedule);
  const auto routed = router.Route(model_.lookups_per_table, 0.0);

  for (const auto& access : routed.accesses) {
    EXPECT_TRUE(schedule.BankAvailable(access.bank, 0.0))
        << "lookup routed to dead bank " << access.bank;
  }
  const std::uint64_t total = static_cast<std::uint64_t>(
      plan_.tables.size() * model_.lookups_per_table);
  EXPECT_EQ(routed.accesses.size() + routed.shed_lookups, total);
  EXPECT_EQ(routed.shed_lookups, 0u);  // replication 2 survives these
  // Surviving replicas absorb the dead channel's lookups in extra rounds:
  // availability is preserved at the price of a longer lookup.
  std::vector<Nanoseconds> bank_ns;
  EXPECT_GT(router.DegradedLookupLatency(routed, platform_, 0.0, bank_ns),
            plan_.lookup_latency_ns);
}

TEST_F(FailoverTest, ZeroSurvivorsShedsAndReports) {
  // Kill every replica of table 0: its lookups must be shed and reported.
  std::vector<std::uint32_t> victims(plan_.tables[0].banks);
  const FaultSchedule schedule = FaultSchedule::FailChannels(victims);
  const FailoverRouter router(&plan_, &schedule);
  const auto routed = router.Route(model_.lookups_per_table, 0.0);
  EXPECT_FALSE(routed.fully_servable());
  EXPECT_GE(routed.unservable_tables, 1u);
  EXPECT_GE(routed.shed_lookups, model_.lookups_per_table);
  const std::uint64_t total = static_cast<std::uint64_t>(
      plan_.tables.size() * model_.lookups_per_table);
  EXPECT_EQ(routed.accesses.size() + routed.shed_lookups, total);
}

TEST_F(FailoverTest, RecoveryRestoresHealthyRouting) {
  FaultSchedule schedule;
  ASSERT_TRUE(schedule
                  .Add(Event(FaultKind::kChannelFail, 0.0, 1000.0,
                             plan_.tables[0].banks[0]))
                  .ok());
  const FailoverRouter router(&plan_, &schedule);
  const auto expected = plan_.ToBankAccesses(model_.lookups_per_table);

  const auto during = router.Route(model_.lookups_per_table, 500.0);
  bool any_moved = false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    any_moved = any_moved || during.accesses[i].bank != expected[i].bank;
  }
  EXPECT_TRUE(any_moved);

  const auto after = router.Route(model_.lookups_per_table, 1000.0);
  ASSERT_EQ(after.accesses.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(after.accesses[i].bank, expected[i].bank);
  }

  // Routing into a reused buffer gives the same lookups as a fresh Route.
  RoutedLookups reused;
  for (const Nanoseconds now : {500.0, 1000.0, 500.0}) {
    router.RouteInto(model_.lookups_per_table, now, reused);
    const auto fresh = router.Route(model_.lookups_per_table, now);
    ASSERT_EQ(reused.accesses.size(), fresh.accesses.size());
    for (std::size_t i = 0; i < fresh.accesses.size(); ++i) {
      EXPECT_EQ(reused.accesses[i].bank, fresh.accesses[i].bank);
      EXPECT_EQ(reused.accesses[i].tag, fresh.accesses[i].tag);
    }
  }
}

// ---------------------------------------------------------------- Retry

TEST(RetryPolicyTest, BackoffGrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ns = 10.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ns = 35.0;
  ASSERT_TRUE(policy.Validate().ok());
  EXPECT_DOUBLE_EQ(policy.BackoffAfterAttempt(1), 10.0);
  EXPECT_DOUBLE_EQ(policy.BackoffAfterAttempt(2), 20.0);
  EXPECT_DOUBLE_EQ(policy.BackoffAfterAttempt(3), 35.0);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffAfterAttempt(4), 35.0);
}

TEST(RetryPolicyTest, ValidateRejectsDegenerateValues) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy{};
  policy.attempt_timeout_ns = 0.0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy{};
  policy.backoff_multiplier = 0.5;
  EXPECT_FALSE(policy.Validate().ok());
}

// ------------------------------------------------------- Degraded serving

TEST(DegradedServingTest, ZeroFaultIdentity) {
  const auto arrivals = PoissonArrivals(200'000.0, 2'000, 17);
  sched::PipelineBackendConfig config;
  config.replicas = 2;
  config.item_latency_ns = Microseconds(5);
  config.initiation_interval_ns = 300.0;
  config.admission_queue_ns = Milliseconds(30);
  const auto report = ServeOnPool(arrivals, config);
  const auto baseline =
      SimulateReplicatedPipelines(arrivals, 2, config.item_latency_ns,
                                  config.initiation_interval_ns,
                                  Milliseconds(30))
          .value();
  EXPECT_EQ(report.availability, 1.0);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.serving.p50, baseline.p50);
  EXPECT_EQ(report.serving.p95, baseline.p95);
  EXPECT_EQ(report.serving.p99, baseline.p99);
  EXPECT_EQ(report.serving.max, baseline.max);
  EXPECT_EQ(report.serving.mean, baseline.mean);
  EXPECT_EQ(report.serving.achieved_qps, baseline.achieved_qps);
}

TEST(DegradedServingTest, AllReplicasDownShedsEverything) {
  const auto arrivals = PoissonArrivals(100'000.0, 500, 3);
  sched::PipelineBackendConfig config;
  config.item_latency_ns = Microseconds(5);
  config.initiation_interval_ns = 300.0;
  ASSERT_TRUE(config.faults
                  .Add(Event(FaultKind::kReplicaCrash, 0.0,
                             kFaultNoRecovery, 0))
                  .ok());
  const auto report = ServeOnPool(arrivals, config);
  EXPECT_EQ(report.served, 0u);
  EXPECT_EQ(report.shed, report.offered);
  EXPECT_EQ(report.availability, 0.0);
}

TEST(DegradedServingTest, CrashedReplicaShrinksThePoolNotTheService) {
  // One of two replicas down for the whole run: everything is still
  // served, but with half the capacity the queues -- and the tail -- grow.
  const auto arrivals = PoissonArrivals(400'000.0, 4'000, 11);
  sched::PipelineBackendConfig healthy;
  healthy.replicas = 2;
  healthy.item_latency_ns = Microseconds(5);
  healthy.initiation_interval_ns = 400.0;
  sched::PipelineBackendConfig crashed = healthy;
  ASSERT_TRUE(crashed.faults
                  .Add(Event(FaultKind::kReplicaCrash, 0.0,
                             kFaultNoRecovery, 1))
                  .ok());
  const auto degraded = ServeOnPool(arrivals, crashed);
  EXPECT_EQ(degraded.availability, 1.0);
  EXPECT_GT(degraded.serving.p99, ServeOnPool(arrivals, healthy).serving.p99);
}

TEST(DegradedServingTest, AdmissionControlShedsInsteadOfQueueingForever) {
  // Offered load far above a single pipeline's capacity with a tight
  // admission bound: the pool must shed, not build an unbounded queue,
  // and the served tail must respect the bound.
  const auto arrivals = PoissonArrivals(2'000'000.0, 4'000, 5);
  sched::PipelineBackendConfig config;
  config.item_latency_ns = Microseconds(5);
  config.initiation_interval_ns = 2'000.0;  // 500 kQPS capacity
  config.admission_queue_ns = Microseconds(50);
  const auto report = ServeOnPool(arrivals, config);
  EXPECT_GT(report.shed, 0u);
  EXPECT_LT(report.availability, 1.0);
  EXPECT_LE(report.serving.max,
            config.admission_queue_ns + config.item_latency_ns + 1.0);
}

TEST_F(FailoverTest, PipelinePoolShedsLostTablesAndSlowsOnStretchedRounds) {
  const auto arrivals = PoissonArrivals(100'000.0, 1'000, 7);
  sched::PipelineBackendConfig config;
  config.item_latency_ns = Microseconds(5) + plan_.lookup_latency_ns;
  config.initiation_interval_ns = 300.0;
  const auto healthy = ServeOnPool(arrivals, config);
  ASSERT_EQ(healthy.availability, 1.0);

  // Every replica of table 0 dead: no query is servable.
  const FaultSchedule lost_table =
      FaultSchedule::FailChannels(plan_.tables[0].banks);
  const FailoverRouter lost_router(&plan_, &lost_table);
  config.failover = {&lost_router, &platform_, model_.lookups_per_table};
  const auto lost = ServeOnPool(arrivals, config);
  EXPECT_EQ(lost.served, 0u);
  EXPECT_EQ(lost.shed, lost.offered);

  // One replica of table 0 dead: the survivor absorbs its lookups in a
  // longer round, so everything is served, more slowly.
  const FaultSchedule one_dead =
      FaultSchedule::FailChannels({plan_.tables[0].banks[0]});
  const FailoverRouter one_dead_router(&plan_, &one_dead);
  config.failover.router = &one_dead_router;
  const auto stretched = ServeOnPool(arrivals, config);
  EXPECT_EQ(stretched.availability, 1.0);
  EXPECT_GT(stretched.serving.p50, healthy.serving.p50);
}

TEST_F(FailoverTest, PipelineRidesOutFailAndDegradeWindowsOpeningMidRun) {
  // Queries arrive every 20 us, far apart enough that none queues. Table 0
  // loses every replica for queries 10..19, and every bank the plan uses
  // serves at 2x for queries 30..39; both windows open after t = 0 and
  // close before the run ends.
  const Nanoseconds gap = Microseconds(20);
  FaultSchedule schedule;
  for (const std::uint32_t bank : plan_.tables[0].banks) {
    ASSERT_TRUE(
        schedule.Add(Event(FaultKind::kChannelFail, 10 * gap, 20 * gap, bank))
            .ok());
  }
  std::vector<std::uint32_t> banks;
  for (const auto& table : plan_.tables) {
    banks.insert(banks.end(), table.banks.begin(), table.banks.end());
  }
  std::sort(banks.begin(), banks.end());
  banks.erase(std::unique(banks.begin(), banks.end()), banks.end());
  for (const std::uint32_t bank : banks) {
    ASSERT_TRUE(schedule
                    .Add(Event(FaultKind::kChannelDegrade, 30 * gap, 40 * gap,
                               bank, 2.0))
                    .ok());
  }
  const FailoverRouter router(&plan_, &schedule);

  sched::PipelineBackendConfig config;
  config.item_latency_ns = Microseconds(5) + plan_.lookup_latency_ns;
  config.initiation_interval_ns = 300.0;
  config.failover = {&router, &platform_, model_.lookups_per_table};
  sched::PipelineBackend backend(config);

  constexpr std::uint64_t kQueries = 50;
  std::vector<bool> admitted;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    admitted.push_back(backend.Admit(
        sched::SchedQuery{i, static_cast<double>(i) * gap, 1, 1}));
  }
  std::vector<sched::SchedCompletion> done;
  backend.Finalize(done);
  std::vector<Nanoseconds> latency(kQueries, -1.0);
  for (const auto& c : done) {
    latency[c.query_id] = c.completion_ns - static_cast<double>(c.query_id) * gap;
  }

  // A doubled round adds one more lookup round to the item latency.
  const Nanoseconds healthy = config.item_latency_ns;
  const Nanoseconds stretched = healthy + plan_.lookup_latency_ns;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    if (i >= 10 && i < 20) {
      EXPECT_FALSE(admitted[i]) << "query " << i << " inside the fail window";
      EXPECT_EQ(latency[i], -1.0) << "shed query " << i << " completed";
      continue;
    }
    ASSERT_TRUE(admitted[i]) << "query " << i;
    const Nanoseconds want = i >= 30 && i < 40 ? stretched : healthy;
    EXPECT_NEAR(latency[i], want, 1e-6) << "query " << i;
  }
}

}  // namespace
}  // namespace microrec
