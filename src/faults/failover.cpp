#include "faults/failover.hpp"

#include <algorithm>
#include <utility>

#include "common/status.hpp"

namespace microrec {

FailoverRouter::FailoverRouter(const ReplicationPlan* plan,
                               const FaultSchedule* schedule)
    : plan_(plan), schedule_(schedule) {
  MICROREC_CHECK(plan_ != nullptr);
}

RoutedLookups FailoverRouter::Route(std::uint32_t lookups_per_table,
                                    Nanoseconds now) const {
  RoutedLookups routed;
  RouteInto(lookups_per_table, now, routed);
  return routed;
}

void FailoverRouter::RouteInto(std::uint32_t lookups_per_table,
                               Nanoseconds now, RoutedLookups& out) const {
  out.accesses.clear();
  out.accesses.reserve(plan_->tables.size() * lookups_per_table);
  out.shed_lookups = 0;
  out.unservable_tables = 0;
  std::uint64_t tag = 0;
  for (const auto& replicated : plan_->tables) {
    // Live candidates in plan order -- primaries first, spares appended
    // after them -- truncated to the primary count so spares only ever
    // substitute for dead primaries (healthy routing stays untouched).
    // Lookup l lands on live candidate l % live: the candidates are
    // written in place as the first lookups, and the rest repeat them.
    const std::size_t first = out.accesses.size();
    const std::uint32_t primaries = replicated.primaries();
    const Bytes bytes = replicated.table.VectorBytes();
    for (std::uint32_t bank : replicated.banks) {
      if (out.accesses.size() - first == primaries) break;
      if (schedule_ == nullptr || schedule_->BankAvailable(bank, now)) {
        out.accesses.push_back(BankAccess{bank, bytes, tag});
      }
    }
    const std::size_t live = out.accesses.size() - first;
    if (live == 0) {
      out.shed_lookups += lookups_per_table;
      ++out.unservable_tables;
    } else if (live >= lookups_per_table) {
      out.accesses.resize(first + lookups_per_table);
    } else {
      for (std::size_t l = live; l < lookups_per_table; ++l) {
        const BankAccess repeat = out.accesses[first + l % live];
        out.accesses.push_back(repeat);
      }
    }
    ++tag;
  }
}

Nanoseconds FailoverRouter::DegradedLookupLatency(
    const RoutedLookups& routed, const MemoryPlatformSpec& platform,
    Nanoseconds now, std::vector<Nanoseconds>& bank_ns) const {
  bank_ns.assign(platform.total_banks(), 0.0);
  for (const auto& access : routed.accesses) {
    MICROREC_CHECK(access.bank < platform.total_banks());
    const double multiplier =
        schedule_ == nullptr
            ? 1.0
            : schedule_->BankLatencyMultiplier(access.bank, now);
    bank_ns[access.bank] +=
        platform.TimingOfBank(access.bank).AccessLatency(access.bytes) *
        multiplier;
  }
  Nanoseconds worst = 0.0;
  for (Nanoseconds t : bank_ns) worst = std::max(worst, t);
  return worst;
}

StatusOr<FaultSweepCase> MakeFaultSweepCase(
    const std::vector<TableSpec>& tables, const MemoryPlatformSpec& platform,
    std::uint32_t lookups_per_table, std::uint32_t replication,
    Nanoseconds compute_latency_ns) {
  ReplicationOptions ropts;
  ropts.lookups_per_table = lookups_per_table;
  ropts.max_replicas = replication;
  ropts.availability_replicas = replication;
  auto plan = ReplicateAndPlace(tables, platform, ropts);
  if (!plan.ok()) return plan.status();

  FaultSweepCase c;
  c.replication = replication;
  c.plan = std::move(*plan);
  std::uint32_t max_replicas = 0;
  for (const auto& table : c.plan.tables) {
    max_replicas = std::max(max_replicas, table.replicas());
  }
  for (std::uint32_t i = 0; i < max_replicas; ++i) {
    for (const auto& table : c.plan.tables) {
      if (i >= table.replicas()) continue;
      const std::uint32_t bank = table.banks[i];
      if (bank >= platform.hbm_channels) continue;
      if (std::find(c.candidates.begin(), c.candidates.end(), bank) ==
          c.candidates.end()) {
        c.candidates.push_back(bank);
      }
    }
  }
  c.item_latency_ns = compute_latency_ns + c.plan.lookup_latency_ns;
  return c;
}

}  // namespace microrec
