// Full-system simulation: the compute pipeline (dataflow simulator) driven
// by per-item embedding latencies from the event-driven hybrid-memory
// simulator, instead of the analytic lookup constant.
//
// This is the closest software analogue of running the real accelerator:
// every inference issues its placement-mapped bank accesses against the
// memory system at the moment its embedding stage starts, so contention
// between pipelined items is modelled rather than assumed away. Tests
// assert it converges to the analytic model when the memory system is
// uncontended, and benches use it to cross-validate the Table 2 numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "core/microrec.hpp"
#include "fpga/dataflow_sim.hpp"
#include "memsim/hybrid_memory.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace microrec {

/// One pipeline stage's share of end-to-end latency ("where did the p99
/// go"). Only populated when telemetry is attached to the simulator.
struct StageAttribution {
  std::string name;
  /// Mean over items of (FIFO wait + service) at this stage; the per-stage
  /// means sum exactly to the mean end-to-end latency.
  Nanoseconds mean_ns = 0.0;
  /// This stage's share of the p99-ranked item's latency; the per-stage
  /// shares sum exactly to that item's end-to-end latency.
  Nanoseconds p99_item_ns = 0.0;
  Nanoseconds busy_ns = 0.0;
  Nanoseconds starved_ns = 0.0;
  Nanoseconds blocked_ns = 0.0;
  double occupancy = 0.0;  ///< busy / makespan
};

struct SystemSimReport {
  std::uint64_t items = 0;
  Nanoseconds makespan_ns = 0.0;
  double throughput_items_per_s = 0.0;
  Nanoseconds item_latency_p50 = 0.0;
  Nanoseconds item_latency_p99 = 0.0;
  Nanoseconds item_latency_max = 0.0;
  Nanoseconds lookup_latency_mean = 0.0;
  Nanoseconds lookup_latency_max = 0.0;
  /// Busiest memory bank's busy fraction over the run.
  double peak_bank_utilization = 0.0;

  /// Per-stage latency attribution; empty unless telemetry was attached.
  std::vector<StageAttribution> attribution;
  /// End-to-end latency of the item the p99 attribution was taken from.
  Nanoseconds p99_item_latency_ns = 0.0;
};

class SystemSimulator {
 public:
  /// Builds from an engine (placement + pipeline config are taken from it).
  /// The engine may be timing-only (materialize=false).
  explicit SystemSimulator(const MicroRecEngine& engine);

  /// Attaches telemetry for subsequent runs: metrics populate the registry
  /// (per-bank/per-kind memsim counters, stage occupancy, latency
  /// histograms), the tracer receives per-query spans (sampled 1-in-N per
  /// its options), and the report's attribution table is filled in. All
  /// timing fields of the report stay bit-for-bit identical to an
  /// un-instrumented run -- tested by the identity gate in obs_test.
  void set_telemetry(const obs::Telemetry& telemetry) {
    telemetry_ = telemetry;
  }

  /// Streams `num_items` inferences with a fixed inter-arrival gap
  /// (0 = an always-full input queue).
  SystemSimReport Run(std::uint64_t num_items,
                      Nanoseconds inter_arrival_ns = 0.0);

  /// Streams items at explicit (nondecreasing) arrival times -- e.g. a
  /// recorded trace's timestamps or a Poisson process.
  SystemSimReport RunArrivals(const std::vector<Nanoseconds>& arrivals);

 private:
  const MicroRecEngine& engine_;
  obs::Telemetry telemetry_;
};

}  // namespace microrec
