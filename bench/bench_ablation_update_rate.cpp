// Ablation: online embedding updates vs serving tail latency (extension
// study; cf. HugeCTR's inference parameter server in the paper's related
// work). Sweeps the row-update rate at a fixed query QPS and reports the
// p99 latency degradation and the staleness of the served snapshot, for
// both write-scheduling policies. Emits BENCH_ablation_update_rate.json
// alongside the table so trajectory tooling can diff runs.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "core/microrec.hpp"
#include "exec/parallel.hpp"
#include "update/serving_update_sim.hpp"
#include "workload/model_zoo.hpp"

using namespace microrec;

int main() {
  bench::PrintHeader(
      "Ablation: serving latency and staleness vs online update rate",
      "related-work extension (HugeCTR-style online refresh)");

  const auto model = SmallProductionModel();
  EngineOptions options;
  options.materialize = false;
  const auto engine = MicroRecEngine::Build(model, options).value();

  constexpr double kQueryQps = 200'000.0;
  constexpr std::uint64_t kQueries = 50'000;
  const auto arrivals = PoissonArrivals(kQueryQps, kQueries, 7);
  std::printf("model: %s | query rate %.0f QPS, %llu queries | item latency "
              "%.1f ns, II %.1f ns\n",
              model.name.c_str(), kQueryQps, (unsigned long long)kQueries,
              engine.timing().item_latency_ns,
              engine.timing().initiation_interval_ns);

  TablePrinter table({"Update rows/s", "fair p99 (us)", "fair stale p99 (us)",
                      "yield p99 (us)", "yield stale p99 (us)"});
  bench::JsonReport json("ablation_update_rate");
  const double rates[] = {0.0, 1e5, 5e5, 1e6, 5e6, 2e7};
  const WritePolicy policies[] = {WritePolicy::kFairInterleave,
                                  WritePolicy::kUpdatesYield};

  // The rate x policy grid is independent point-wise: run it on the
  // deterministic parallel engine (exec/), then print in index order --
  // same table at any thread count.
  const std::size_t num_rates = std::size(rates);
  const std::size_t num_policies = std::size(policies);
  exec::ParallelRunner runner(exec::DefaultThreads());
  const auto reports =
      runner.Map(num_rates * num_policies, [&](std::size_t p) {
        UpdateServingConfig config;
        config.item_latency_ns = engine.timing().item_latency_ns;
        config.initiation_interval_ns =
            engine.timing().initiation_interval_ns;
        config.deltas.update_row_qps = rates[p / num_policies];
        config.deltas.seed = 11;
        config.policy = policies[p % num_policies];
        return SimulateServingWithUpdates(model, engine.plan(),
                                          options.platform, arrivals, config);
      });

  for (std::size_t r = 0; r < num_rates; ++r) {
    std::vector<std::string> row = {TablePrinter::Num(rates[r], 0)};
    for (std::size_t q = 0; q < num_policies; ++q) {
      const auto& report = reports[r * num_policies + q];
      row.push_back(TablePrinter::Num(report.serving.p99 / 1000.0, 2));
      row.push_back(TablePrinter::Num(report.staleness_p99 / 1000.0, 2));
      json.AddRecord({{"qps", kQueryQps},
                      {"update_qps", rates[r]},
                      {"policy", WritePolicyName(policies[q])},
                      {"p99_ns", report.serving.p99},
                      {"staleness_p99_ns", report.staleness_p99}});
    }
    table.AddRow(row);
  }
  table.Print();
  json.WriteFile();
  bench::PrintNote(
      "fair interleave keeps the snapshot fresh but lets update writes sit "
      "in front of lookups; updates-yield defers writes behind the query "
      "stream, trading staleness for tail latency -- at rate 0 both rows "
      "match the no-update pipelined server exactly");
  return 0;
}
