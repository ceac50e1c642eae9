// Consumers of the scheduler flight recorder (obs/event_log.hpp): causal
// per-query timelines, ranked worst offenders, and SLO-alert-triggered
// postmortem snapshots.
//
// `microrec explain` is built on BuildQueryTimeline / RankWorstQueries /
// RenderTimeline: given a recorded event log it reconstructs, for any
// query id, the full admit -> terminal decision sequence -- which backend
// the policy preferred and why the scheduler overrode it (per-backend
// probes, breaker state, "open since t=..." lookups against the breaker
// transition events), every retry and hedge, and the terminal fate.
//
// PostmortemTrigger is the alert-time counterpart: replaying EvaluateSlo's
// burn-rate alerts against the same log, it snapshots the trailing event
// window around each alert plus reconstructed breaker states and an
// event-kind activity diff (window vs whole run) into postmortem.json --
// the artifact a responder would want attached to the page.
//
// Everything here is pure observation over an EventLog; nothing feeds back
// into the scheduler.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"

namespace microrec::obs {

/// One query's complete event sequence, in causal (time, seq) order.
struct QueryTimeline {
  std::uint64_t query = kNoQuery;
  std::vector<SchedEvent> events;
  /// Time of the first event (the scheduler emits the routing decision at
  /// the arrival instant, so this is the arrival time).
  Nanoseconds arrival_ns = 0.0;
  /// Name of the terminal event kind ("serve", "hedge-win", "shed",
  /// "deadline-miss"); empty when no terminal was recorded.
  std::string terminal;
  /// Served latency (serve / hedge-win value); 0 otherwise.
  Nanoseconds latency_ns = 0.0;
  /// Total admissions recorded (original + retries + hedges).
  std::uint32_t admits = 0;
  /// True when the timeline both starts with a decision event (route or
  /// shed) and ends in exactly one terminal -- i.e. the ring still holds
  /// the query's whole story (old events may have been evicted).
  bool complete = false;
};

/// Extracts `query`'s timeline from the log. A query with no recorded
/// events yields an empty, incomplete timeline.
QueryTimeline BuildQueryTimeline(const EventLog& log, std::uint64_t query);

/// The `limit` worst query timelines in the log: deadline-missed queries
/// first (most admissions first, then earliest arrival), then sheds (by
/// arrival), then served queries by descending latency. Deterministic.
std::vector<QueryTimeline> RankWorstQueries(const EventLog& log,
                                            std::size_t limit);

/// Renders a timeline as human-readable text, one event per line, with
/// backend names resolved and routing overrides annotated ("preferred X
/// but its breaker was open since t=..." reconstructed from the log's
/// breaker transition events).
std::string RenderTimeline(const EventLog& log, const QueryTimeline& timeline);

/// One fired burn-rate rule's snapshot.
struct PostmortemAlert {
  std::string severity;
  double burn_threshold = 0.0;
  double peak_burn = 0.0;
  Nanoseconds alert_ns = 0.0;  ///< the rule's first_alert_ns
  /// Captured window [window_begin_ns, alert_ns]; always contains
  /// alert_ns.
  Nanoseconds window_begin_ns = 0.0;
  /// Events inside the window, causal order; only the most recent 512
  /// are kept.
  std::vector<SchedEvent> events;
  std::uint64_t events_in_window = 0;  ///< before the 512-event cap
  /// Per-kind event counts: activity inside the window vs the whole log
  /// (index-aligned pairs, only kinds that occur at all).
  std::vector<std::string> kind_names;
  std::vector<std::uint64_t> kind_window_counts;
  std::vector<std::uint64_t> kind_total_counts;
  /// Breaker state per backend at the alert instant, reconstructed from
  /// transition events at or before alert_ns ("closed" when none).
  std::vector<std::string> breaker_states;
  /// For open breakers: the reopen time the last open event carried.
  std::vector<Nanoseconds> breaker_open_since_ns;
};

struct PostmortemReport {
  std::string slo_name;
  double objective = 0.0;
  Nanoseconds latency_threshold_ns = 0.0;
  std::uint64_t total = 0;
  std::uint64_t bad = 0;
  double error_budget_remaining = 1.0;
  std::vector<PostmortemAlert> alerts;  ///< one per fired rule
  /// Optional run-level metrics to embed (scheduler counters); empty
  /// snapshots are omitted from the JSON.
  MetricsSnapshot metrics;

  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;
};

/// Watches EvaluateSlo results for a recorded run and snapshots the log
/// around every fired burn-rate rule, over the trailing window the rule
/// fired on. `spec` supplies those window lengths (SloReport does not
/// carry them); `slo` must be the report EvaluateSlo produced for that
/// spec.
class PostmortemTrigger {
 public:
  explicit PostmortemTrigger(const EventLog& log) : log_(log) {}

  /// Builds the postmortem for `slo`'s fired rules (alerts is empty when
  /// nothing fired -- the report still carries the budget numbers).
  PostmortemReport Trigger(const SloSpec& spec, const SloReport& slo) const;

 private:
  const EventLog& log_;
};

}  // namespace microrec::obs
