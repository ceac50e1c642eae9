// The standard four-path fleet the sched-sweep CLI, bench_scheduler, and
// tests share: one config of plain numbers expands to the pipeline, CPU,
// hot-cache, and fault-degraded (a PipelineBackend given replica faults)
// backends at fixed indices. Defaults are
// calibrated against the repo's paper anchors (dlrm-scale item latencies,
// the TF-Serving framework-overhead model) so a sweep at the default
// offered load runs the accelerator path at ~75% item utilization in calm
// traffic and past saturation during 3x bursts -- the regime where routing
// policy decides the tail.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "sched/backends.hpp"

namespace microrec::sched {

/// Fixed backend indices in the built fleet.
inline constexpr std::size_t kFleetFpga = 0;
inline constexpr std::size_t kFleetCpu = 1;
inline constexpr std::size_t kFleetHotCache = 2;
inline constexpr std::size_t kFleetDegraded = 3;
inline constexpr std::size_t kFleetSize = 4;

struct FleetConfig {
  std::uint64_t seed = 1;
  /// Expected run span; the degraded pool's fault windows scale with it
  /// (crash and degrade windows sit at fixed fractions of the horizon).
  Nanoseconds horizon_ns = Milliseconds(50);
  std::uint64_t lookups_per_item = 8;

  // MicroRec pipeline pool (the low-latency path).
  std::uint32_t fpga_replicas = 2;
  Nanoseconds fpga_item_latency_ns = Microseconds(20);
  Nanoseconds fpga_initiation_interval_ns = 300.0;

  // Batched CPU servers (the throughput path with a framework floor).
  std::uint32_t cpu_servers = 4;
  std::uint64_t cpu_max_batch = 256;
  Nanoseconds cpu_batch_timeout_ns = Milliseconds(1);
  Nanoseconds cpu_fixed_overhead_ns = Microseconds(450);
  Nanoseconds cpu_per_item_ns = 200.0;
  Nanoseconds cpu_per_lookup_ns = 60.0;

  // Hot-row cache pipeline (fast when warm, a lower-capacity single unit).
  Nanoseconds cache_hit_item_latency_ns = Microseconds(8);
  Nanoseconds cache_miss_item_latency_ns = Microseconds(24);
  Nanoseconds cache_initiation_interval_ns = 400.0;
  Bytes cache_capacity_bytes = 4ull << 20;
  Bytes cache_entry_bytes = 64;
  std::uint64_t cache_key_space = 1ull << 20;
  double cache_zipf_theta = 0.95;

  // Fault-degraded replica pool (capacity that comes and goes).
  std::uint32_t degraded_replicas = 2;
  Nanoseconds degraded_item_latency_ns = Microseconds(20);
  Nanoseconds degraded_initiation_interval_ns = 300.0;
};

/// Builds the four backends at the kFleet* indices. Deterministic in
/// `config` (the hot cache's row stream sub-seeds from config.seed).
std::vector<std::unique_ptr<Backend>> BuildStandardFleet(
    const FleetConfig& config);

}  // namespace microrec::sched
