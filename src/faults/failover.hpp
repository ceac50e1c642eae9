// Availability-aware failover routing over a ReplicationPlan.
//
// Healthy, a table's lookups rotate over its primary replicas -- the
// placement the round model priced. When a channel fails, the lookups that
// would have landed on it re-route to the table's surviving replicas
// (primaries first, then availability spares), capped at the primary count
// so spares substitute for dead primaries instead of quietly improving the
// healthy round. Fewer survivors than primaries collapses the single-round
// schedule into a multi-round one (the degraded mode the paper's section
// 5.4.2 analysis predicts); zero survivors means the lookup is *shed* and
// reported, never silently dropped.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "faults/fault_schedule.hpp"
#include "memsim/dram_timing.hpp"
#include "memsim/hybrid_memory.hpp"
#include "placement/replication.hpp"

namespace microrec {

/// One inference's lookups after failover routing.
struct RoutedLookups {
  std::vector<BankAccess> accesses;     ///< every access targets a live bank
  std::uint64_t shed_lookups = 0;       ///< no live replica anywhere
  std::uint32_t unservable_tables = 0;  ///< tables with zero live replicas

  bool fully_servable() const { return unservable_tables == 0; }
};

class FailoverRouter {
 public:
  /// Neither pointer is owned. `schedule` may be nullptr (always-healthy
  /// router); `plan` must outlive the router.
  FailoverRouter(const ReplicationPlan* plan, const FaultSchedule* schedule);

  /// Routes `lookups_per_table` lookups per table at time `now`. With a
  /// null/empty schedule this reproduces ReplicationPlan::ToBankAccesses
  /// exactly (access-for-access), so the healthy path costs nothing.
  RoutedLookups Route(std::uint32_t lookups_per_table, Nanoseconds now) const;

  /// Route, refilling `out` in place: a caller that routes query after
  /// query reuses one buffer and stops allocating once it has grown.
  void RouteInto(std::uint32_t lookups_per_table, Nanoseconds now,
                 RoutedLookups& out) const;

  /// Idle-system latency of `routed` (a Route result at `now`) under the
  /// schedule's degrade multipliers: the largest per-bank sum of
  /// multiplied access latencies (the fault-aware RoundLatencyModel). Shed
  /// lookups contribute nothing; check `routed.fully_servable()` if that
  /// matters. `bank_ns` is caller scratch, refilled with the per-bank sums.
  Nanoseconds DegradedLookupLatency(const RoutedLookups& routed,
                                    const MemoryPlatformSpec& platform,
                                    Nanoseconds now,
                                    std::vector<Nanoseconds>& bank_ns) const;

  const ReplicationPlan& plan() const { return *plan_; }

 private:
  const ReplicationPlan* plan_;
  const FaultSchedule* schedule_;
};

/// One replication factor of a "what does losing k HBM channels cost?"
/// sweep (microrec fault-sweep, bench_ablation_faults).
struct FaultSweepCase {
  std::uint32_t replication = 0;
  ReplicationPlan plan;  ///< max and availability replicas = replication
  /// Channels worth failing, in failure order: distinct HBM banks actually
  /// serving lookups, round-robin by replica index (every table's first
  /// replica before any table's second) so k failures spread over k tables
  /// the way random channel failures do, instead of adversarially
  /// concentrating on one table. DDR banks never fail here.
  std::vector<std::uint32_t> candidates;
  /// Per-item pipeline latency with this plan's lookup latency.
  Nanoseconds item_latency_ns = 0.0;
};

/// Places `tables` at `replication` and derives the failure order and the
/// item latency: `compute_latency_ns` (an item's latency minus its lookup
/// latency) plus the plan's lookup latency.
StatusOr<FaultSweepCase> MakeFaultSweepCase(
    const std::vector<TableSpec>& tables, const MemoryPlatformSpec& platform,
    std::uint32_t lookups_per_table, std::uint32_t replication,
    Nanoseconds compute_latency_ns);

}  // namespace microrec
