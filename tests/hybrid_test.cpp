// Tests for the hybrid CPU + FPGA fleet: a PipelineBackend plus a
// CpuBatchedBackend routed by the spill policy through the scheduled-serving
// loop.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/policy.hpp"
#include "serving/scaleout.hpp"
#include "serving/serving_sim.hpp"

namespace microrec {
namespace {

struct HybridSetup {
  // FPGA pool: item-streaming pipelines.
  std::uint32_t fpga_replicas = 1;
  Nanoseconds fpga_item_latency_ns = 20'000.0;        // 20 us
  Nanoseconds fpga_initiation_interval_ns = 3'300.0;  // ~3e5 items/s
  // CPU pool: batched servers at 3 ms + 12 us per item (0 = no CPU pool).
  std::uint32_t cpu_servers = 2;
  Nanoseconds cpu_batch_timeout_ns = Milliseconds(5);
  Nanoseconds spill_threshold_ns = Milliseconds(1);
};

struct HybridRun {
  ServingReport overall;
  std::uint64_t fpga_queries = 0;
  std::uint64_t cpu_queries = 0;
};

HybridRun RunHybrid(const std::vector<Nanoseconds>& arrivals,
                    const HybridSetup& setup, Nanoseconds sla_ns) {
  std::vector<sched::SchedQuery> queries;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    sched::SchedQuery q;
    q.id = i;
    q.arrival_ns = arrivals[i];
    queries.push_back(q);
  }

  std::vector<std::unique_ptr<sched::Backend>> fleet;
  sched::PipelineBackendConfig fpga;
  fpga.replicas = setup.fpga_replicas;
  fpga.item_latency_ns = setup.fpga_item_latency_ns;
  fpga.initiation_interval_ns = setup.fpga_initiation_interval_ns;
  fleet.push_back(std::make_unique<sched::PipelineBackend>(fpga));
  if (setup.cpu_servers > 0) {
    sched::CpuBackendConfig cpu;
    cpu.servers = setup.cpu_servers;
    cpu.max_batch = 256;
    cpu.batch_timeout_ns = setup.cpu_batch_timeout_ns;
    cpu.fixed_overhead_ns = Milliseconds(3.0);
    cpu.per_item_ns = Microseconds(12.0);
    fleet.push_back(std::make_unique<sched::CpuBatchedBackend>(cpu));
  }

  auto policy = sched::MakeSpillPolicy(setup.spill_threshold_ns);
  sched::FtOptions options;
  options.base.sla_ns = sla_ns;
  const sched::SchedReport report =
      sched::SimulateFaultTolerantServing(queries, fleet, *policy, options)
          .base;
  // The spill fleet never sheds: both backends admit every query.
  EXPECT_EQ(report.served, arrivals.size());

  HybridRun run;
  run.overall = report.serving;
  run.fpga_queries = report.usage[0].queries;
  if (report.usage.size() > 1) run.cpu_queries = report.usage[1].queries;
  return run;
}

TEST(HybridFleetTest, LightLoadStaysOnFpga) {
  const auto arrivals = PoissonArrivals(50'000.0, 10'000, 3);
  const auto report = RunHybrid(arrivals, HybridSetup{}, Milliseconds(30));
  EXPECT_EQ(report.cpu_queries, 0u);
  EXPECT_EQ(report.fpga_queries, 10'000u);
  EXPECT_LT(report.overall.p99, Microseconds(100));
}

TEST(HybridFleetTest, MatchesPureFpgaWhenNoSpill) {
  const auto arrivals = PoissonArrivals(100'000.0, 5'000, 5);
  HybridSetup setup;
  setup.cpu_servers = 0;  // no CPU pool at all
  const auto hybrid = RunHybrid(arrivals, setup, Milliseconds(30));
  const auto pure = SimulatePipelinedServer(
      arrivals, setup.fpga_item_latency_ns,
      setup.fpga_initiation_interval_ns, Milliseconds(30));
  EXPECT_DOUBLE_EQ(hybrid.overall.p99, pure.p99);
  EXPECT_DOUBLE_EQ(hybrid.overall.max, pure.max);
}

TEST(HybridFleetTest, OverloadSpillsToCpu) {
  // Offered 1.5x FPGA capacity: the surplus must go to the CPU pool.
  const double capacity = kNanosPerSecond / 3'300.0;
  const auto arrivals = PoissonArrivals(1.5 * capacity, 50'000, 7);
  const auto report = RunHybrid(arrivals, HybridSetup{}, Milliseconds(30));
  EXPECT_GT(report.cpu_queries, 5'000u);
  EXPECT_GT(report.fpga_queries, 25'000u);
  EXPECT_EQ(report.cpu_queries + report.fpga_queries, 50'000u);
}

TEST(HybridFleetTest, SpillProtectsFpgaTailVersusNoCpu) {
  const double capacity = kNanosPerSecond / 3'300.0;
  const auto arrivals = PoissonArrivals(1.5 * capacity, 50'000, 9);
  HybridSetup with_cpu;
  // Provision the CPU pool for the ~0.5x-capacity spill stream: each
  // server sustains ~42k batched items/s, the spill is ~150k/s.
  with_cpu.cpu_servers = 6;
  HybridSetup without_cpu;
  without_cpu.cpu_servers = 0;
  const auto hybrid = RunHybrid(arrivals, with_cpu, Milliseconds(30));
  const auto pure = RunHybrid(arrivals, without_cpu, Milliseconds(30));
  // Without spill the FPGA queue diverges (latency grows with backlog);
  // with the CPU pool the p99 is bounded by a CPU batch (~several ms).
  EXPECT_GT(pure.overall.p99, hybrid.overall.p99);
  EXPECT_LT(hybrid.overall.sla_violation_rate,
            pure.overall.sla_violation_rate + 1e-12);
  EXPECT_LT(hybrid.overall.p99, Milliseconds(30));
}

TEST(HybridFleetTest, MedianStaysMicrosecondUnderOverload) {
  // Most queries still ride the FPGA: p50 remains microseconds even while
  // spilled queries pay CPU-batch milliseconds.
  const double capacity = kNanosPerSecond / 3'300.0;
  const auto arrivals = PoissonArrivals(1.3 * capacity, 50'000, 11);
  const auto report = RunHybrid(arrivals, HybridSetup{}, Milliseconds(30));
  EXPECT_LT(report.overall.p50, Milliseconds(1.5));
  EXPECT_GT(report.overall.p99, report.overall.p50);
}

TEST(HybridFleetTest, MoreFpgasReduceSpills) {
  const double capacity = kNanosPerSecond / 3'300.0;
  const auto arrivals = PoissonArrivals(1.5 * capacity, 30'000, 13);
  HybridSetup one;
  HybridSetup two;
  two.fpga_replicas = 2;
  const auto spill_one = RunHybrid(arrivals, one, Milliseconds(30));
  const auto spill_two = RunHybrid(arrivals, two, Milliseconds(30));
  EXPECT_LT(spill_two.cpu_queries, spill_one.cpu_queries);
  EXPECT_EQ(spill_two.cpu_queries, 0u);  // 2 replicas cover 1.5x load
}

TEST(HybridFleetTest, ZeroTimeoutCpuBatchesLaunchImmediately) {
  // With a zero aggregation window, spilled queries become singleton
  // batches that launch as soon as the server frees.
  HybridSetup setup;
  setup.cpu_batch_timeout_ns = 0.0;
  setup.spill_threshold_ns = 1.0;  // spill almost everything queued
  const double capacity = kNanosPerSecond / 3'300.0;
  const auto arrivals = PoissonArrivals(1.2 * capacity, 10'000, 17);
  const auto report = RunHybrid(arrivals, setup, Milliseconds(60));
  EXPECT_GT(report.cpu_queries, 0u);
  EXPECT_EQ(report.cpu_queries + report.fpga_queries, 10'000u);
  EXPECT_GT(report.overall.mean, 0.0);
}

TEST(HybridFleetTest, FinalFlushDrainsTailQueries) {
  // A burst at the very end of the stream must still be completed (the
  // final flush launches partial batches past the last arrival).
  HybridSetup setup;
  setup.spill_threshold_ns = 1.0;
  std::vector<Nanoseconds> arrivals;
  for (int i = 0; i < 100; ++i) arrivals.push_back(static_cast<double>(i));
  const auto report = RunHybrid(arrivals, setup, Milliseconds(60));
  EXPECT_EQ(report.overall.queries, 100u);
  // Nobody is left with a zero completion (latency would be <= 0).
  EXPECT_GT(report.overall.p50, 0.0);
}

TEST(HybridFleetTest, AllCompletionsAssigned) {
  // Every query gets a completion strictly after its arrival.
  const auto arrivals = PoissonArrivals(400'000.0, 20'000, 15);
  const auto report = RunHybrid(arrivals, HybridSetup{}, Milliseconds(30));
  EXPECT_EQ(report.overall.queries, 20'000u);
  EXPECT_GT(report.overall.mean, 0.0);
  EXPECT_GE(report.overall.p50, 0.0);
}

}  // namespace
}  // namespace microrec
