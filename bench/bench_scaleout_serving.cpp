// Extension: fleet-scale serving economics. Combines the paper's cost
// appendix with the serving simulators: how many devices and dollars does
// a target traffic level need, and what latency does each fleet deliver?
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "core/microrec.hpp"
#include "cpu/paper_baseline.hpp"
#include "sched/backends.hpp"
#include "sched/ft_scheduler.hpp"
#include "sched/load_gen.hpp"
#include "sched/policy.hpp"
#include "serving/scaleout.hpp"
#include "serving/serving_sim.hpp"
#include "workload/model_zoo.hpp"

using namespace microrec;

int main() {
  bench::PrintHeader(
      "Extension: fleet provisioning and latency at datacenter traffic",
      "cost appendix, scaled out");

  const auto model = SmallProductionModel();
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(model, options).value();

  const DeviceClass cpu{PaperEndToEndThroughput(false, 2048).value(), 1.82};
  const DeviceClass fpga{engine.Throughput(), 1.65};

  // Part 1: provisioning sweep.
  {
    TablePrinter table({"Target qps", "CPU servers", "CPU $/h",
                        "FPGA cards", "FPGA $/h", "FPGA cost advantage"});
    for (double qps : {1e5, 5e5, 1e6, 5e6, 1e7}) {
      const auto cpu_plan = ProvisionFleet(qps, cpu).value();
      const auto fpga_plan = ProvisionFleet(qps, fpga).value();
      table.AddRow({TablePrinter::Sci(qps, 0),
                    std::to_string(cpu_plan.devices),
                    TablePrinter::Num(cpu_plan.dollars_per_hour),
                    std::to_string(fpga_plan.devices),
                    TablePrinter::Num(fpga_plan.dollars_per_hour),
                    TablePrinter::Speedup(cpu_plan.dollars_per_hour /
                                          fpga_plan.dollars_per_hour)});
    }
    table.Print();
  }

  // Part 2: latency of a provisioned FPGA fleet vs an equally provisioned
  // batched-CPU fleet at 1M qps.
  {
    const double qps = 1e6;
    const auto fpga_plan = ProvisionFleet(qps, fpga).value();
    const auto arrivals = PoissonArrivals(qps, 200'000, 11);
    const auto fpga_fleet = SimulateReplicatedPipelines(
        arrivals, static_cast<std::uint32_t>(fpga_plan.devices),
        engine.ItemLatency(), engine.timing().initiation_interval_ns,
        Milliseconds(30)).value();
    std::printf("\nFPGA fleet of %llu cards at %.0e qps:\n  %s\n",
                (unsigned long long)fpga_plan.devices, qps,
                fpga_fleet.ToString().c_str());
    std::printf("Every query completes in ~%s -- the batching CPU fleet's "
                "floor is its batch window plus a multi-ms batch (see "
                "bench_table2 / online_serving example).\n",
                FormatNanos(fpga_fleet.p99).c_str());
  }

  // Part 3: hybrid scheduling (DeepRecSys-style, from the paper's related
  // work): an under-provisioned FPGA pool protected by CPU spillover.
  {
    const double fpga_capacity =
        kNanosPerSecond / engine.timing().initiation_interval_ns;
    // Poisson: bit-identical to PoissonArrivals(rate, 100'000, 21).
    sched::LoadGenConfig load;
    load.rate_qps = 1.4 * fpga_capacity;
    load.num_queries = 100'000;
    load.seed = 21;
    const auto queries = sched::GenerateLoad(load);

    // One FPGA pipeline, plus `cpu_servers` batched CPU servers (3 ms +
    // 12 us per item per batch) that take the queries arriving while the
    // FPGA queue is over 1 ms deep.
    struct HybridRun {
      std::uint64_t fpga = 0;
      std::uint64_t cpu = 0;
      ServingReport overall;
    };
    const auto run = [&](std::uint32_t cpu_servers) {
      std::vector<std::unique_ptr<sched::Backend>> fleet;
      sched::PipelineBackendConfig fpga;
      fpga.item_latency_ns = engine.ItemLatency();
      fpga.initiation_interval_ns = engine.timing().initiation_interval_ns;
      fleet.push_back(std::make_unique<sched::PipelineBackend>(fpga));
      if (cpu_servers > 0) {
        sched::CpuBackendConfig cpu;
        cpu.servers = cpu_servers;
        cpu.max_batch = 256;
        cpu.batch_timeout_ns = Milliseconds(5);
        cpu.fixed_overhead_ns = Milliseconds(3.0);
        cpu.per_item_ns = Microseconds(12.0);
        fleet.push_back(std::make_unique<sched::CpuBatchedBackend>(cpu));
      }
      auto policy = sched::MakeSpillPolicy(Milliseconds(1));
      sched::FtOptions options;
      options.base.sla_ns = Milliseconds(30);
      const sched::SchedReport report =
          sched::SimulateFaultTolerantServing(queries, fleet, *policy, options)
              .base;
      HybridRun result;
      result.fpga = report.usage[0].queries;
      result.cpu = cpu_servers > 0 ? report.usage[1].queries : 0;
      result.overall = report.serving;
      return result;
    };
    const HybridRun hybrid = run(5);
    const HybridRun alone = run(0);

    std::printf("\nHybrid scheduling at 1.4x one card's capacity "
                "(1 FPGA + 5 CPU servers):\n");
    TablePrinter table({"Fleet", "FPGA queries", "CPU queries", "p50", "p99",
                        "SLA violations"});
    table.AddRow({"FPGA only (overloaded)",
                  std::to_string(alone.fpga),
                  std::to_string(alone.cpu),
                  FormatNanos(alone.overall.p50),
                  FormatNanos(alone.overall.p99),
                  TablePrinter::Num(100.0 * alone.overall.sla_violation_rate,
                                    1) + "%"});
    table.AddRow({"hybrid with CPU spill",
                  std::to_string(hybrid.fpga),
                  std::to_string(hybrid.cpu),
                  FormatNanos(hybrid.overall.p50),
                  FormatNanos(hybrid.overall.p99),
                  TablePrinter::Num(100.0 * hybrid.overall.sla_violation_rate,
                                    1) + "%"});
    table.Print();
    bench::PrintNote(
        "spilling the surplus to batched CPU servers bounds the tail at a "
        "CPU batch's cost while the median stays on the microsecond FPGA "
        "path -- the DeepRecSys scheduling idea applied to MicroRec");
  }
  return 0;
}
