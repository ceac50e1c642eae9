#include "obs/explain.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/json_writer.hpp"

namespace microrec::obs {

namespace {

/// Cap on events embedded per postmortem alert (the most recent are kept).
constexpr std::size_t kPostmortemMaxEvents = 512;

bool IsTerminal(SchedEventKind kind) {
  return kind == SchedEventKind::kServe ||
         kind == SchedEventKind::kHedgeWin ||
         kind == SchedEventKind::kShed ||
         kind == SchedEventKind::kDeadlineMiss;
}

std::string FormatNs(Nanoseconds ns) {
  char buf[48];
  if (ns >= 1e6 || ns <= -1e6) {
    std::snprintf(buf, sizeof(buf), "%.3fms", ns / 1e6);
  } else if (ns >= 1e3 || ns <= -1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

/// sched::BreakerState values as recorded in BackendProbe::breaker.
const char* ProbeBreakerName(std::int8_t state) {
  switch (state) {
    case 0: return "closed";
    case 1: return "open";
    case 2: return "half-open";
    default: return "off";
  }
}

void FinishTimeline(QueryTimeline& t) {
  if (t.events.empty()) return;
  t.arrival_ns = t.events.front().time_ns;
  std::size_t terminals = 0;
  for (const SchedEvent& e : t.events) {
    switch (e.kind) {
      case SchedEventKind::kAdmit:
        ++t.admits;
        break;
      case SchedEventKind::kServe:
      case SchedEventKind::kHedgeWin:
        t.latency_ns = e.value;
        break;
      default:
        break;
    }
    if (IsTerminal(e.kind)) {
      ++terminals;
      t.terminal = SchedEventKindName(e.kind);
    }
  }
  // Complete = the ring still holds the whole story: it starts with the
  // arrival-instant decision (route, or an immediate shed) and contains
  // exactly one terminal. Cancelled stragglers may trail the terminal.
  const SchedEventKind first = t.events.front().kind;
  t.complete = terminals == 1 && (first == SchedEventKind::kRoute ||
                                  first == SchedEventKind::kShed);
}

/// Last-known breaker state per backend from transition events at or
/// before `at_ns`; pair of (state name, time the state was entered).
struct BreakerAt {
  std::string state = "closed";
  Nanoseconds since_ns = 0.0;
  Nanoseconds reopen_at_ns = 0.0;
};

std::vector<BreakerAt> BreakerStatesAt(const std::vector<SchedEvent>& sorted,
                                       std::size_t num_backends,
                                       Nanoseconds at_ns) {
  std::vector<BreakerAt> states(num_backends);
  for (const SchedEvent& e : sorted) {
    if (e.time_ns > at_ns) break;
    if (e.backend < 0 ||
        static_cast<std::size_t>(e.backend) >= num_backends) {
      continue;
    }
    BreakerAt& b = states[static_cast<std::size_t>(e.backend)];
    switch (e.kind) {
      case SchedEventKind::kBreakerOpen:
        b = {"open", e.time_ns, e.value};
        break;
      case SchedEventKind::kBreakerHalfOpen:
        b = {"half-open", e.time_ns, 0.0};
        break;
      case SchedEventKind::kBreakerClose:
        b = {"closed", e.time_ns, 0.0};
        break;
      default:
        break;
    }
  }
  return states;
}

std::size_t FleetSize(const EventLog& log) {
  std::size_t n = log.backend_names().size();
  for (const SchedEvent& e : log.events()) {
    if (e.backend >= 0) {
      n = std::max(n, static_cast<std::size_t>(e.backend) + 1);
    }
    n = std::max(n, e.probes.size());
  }
  return n;
}

}  // namespace

QueryTimeline BuildQueryTimeline(const EventLog& log, std::uint64_t query) {
  QueryTimeline t;
  t.query = query;
  for (const SchedEvent& e : log.Sorted()) {
    if (e.query == query) t.events.push_back(e);
  }
  FinishTimeline(t);
  return t;
}

std::vector<QueryTimeline> RankWorstQueries(const EventLog& log,
                                            std::size_t limit) {
  std::map<std::uint64_t, QueryTimeline> by_query;
  for (const SchedEvent& e : log.Sorted()) {
    if (e.query == kNoQuery) continue;
    QueryTimeline& t = by_query[e.query];
    t.query = e.query;
    t.events.push_back(e);
  }
  std::vector<QueryTimeline> all;
  all.reserve(by_query.size());
  for (auto& [query, t] : by_query) {
    FinishTimeline(t);
    all.push_back(std::move(t));
  }

  auto rank_class = [](const QueryTimeline& t) {
    if (t.terminal == "deadline-miss") return 0;
    if (t.terminal == "shed") return 1;
    return 2;
  };
  std::stable_sort(all.begin(), all.end(),
                   [&](const QueryTimeline& a, const QueryTimeline& b) {
                     const int ca = rank_class(a), cb = rank_class(b);
                     if (ca != cb) return ca < cb;
                     if (ca == 0) {  // deadline misses: most churn first
                       if (a.admits != b.admits) return a.admits > b.admits;
                       return a.arrival_ns < b.arrival_ns;
                     }
                     if (ca == 1) return a.arrival_ns < b.arrival_ns;
                     return a.latency_ns > b.latency_ns;
                   });
  if (all.size() > limit) all.resize(limit);
  return all;
}

std::string RenderTimeline(const EventLog& log,
                           const QueryTimeline& timeline) {
  std::ostringstream os;
  os << "query " << timeline.query;
  if (timeline.events.empty()) {
    os << ": no recorded events (evicted or never offered)\n";
    return os.str();
  }
  os << " (arrival t=" << FormatNs(timeline.arrival_ns) << "): "
     << (timeline.terminal.empty() ? "no terminal recorded"
                                   : timeline.terminal);
  if (timeline.latency_ns > 0.0) {
    os << " in " << FormatNs(timeline.latency_ns);
  }
  os << ", " << timeline.admits << " admission(s)"
     << (timeline.complete ? "" : " [incomplete: ring evicted events]")
     << "\n";

  const std::vector<SchedEvent> sorted = log.Sorted();
  for (const SchedEvent& e : timeline.events) {
    os << "  t=" << FormatNs(e.time_ns) << " " << SchedEventKindName(e.kind);
    switch (e.kind) {
      case SchedEventKind::kRoute: {
        os << " -> " << log.BackendName(e.backend);
        if (e.attempt != 0) os << " (retry " << e.attempt << ")";
        if (e.hedge) os << " (hedge)";
        if (e.preferred != kNoBackend && e.preferred != e.backend) {
          os << "; policy preferred " << log.BackendName(e.preferred);
          if (static_cast<std::size_t>(e.preferred) < e.probes.size()) {
            const BackendProbe& p =
                e.probes[static_cast<std::size_t>(e.preferred)];
            if (p.breaker == 1) {
              const auto states = BreakerStatesAt(
                  sorted, static_cast<std::size_t>(e.preferred) + 1,
                  e.time_ns);
              os << " but its breaker was open since t="
                 << FormatNs(states.back().since_ns);
            } else if (!p.accepting) {
              os << " but it was not accepting";
            } else if (!p.admissible) {
              os << " but it was not admissible";
            }
          }
        }
        if (!e.probes.empty()) {
          os << "\n      probes:";
          for (std::size_t b = 0; b < e.probes.size(); ++b) {
            const BackendProbe& p = e.probes[b];
            os << " " << log.BackendName(static_cast<std::int32_t>(b))
               << "[score=" << FormatNs(p.score_ns)
               << " queue=" << FormatNs(p.queue_ns)
               << (p.accepting ? "" : " !accepting")
               << (p.admissible ? "" : " !admissible");
            if (p.breaker >= 0) os << " breaker=" << ProbeBreakerName(p.breaker);
            os << "]";
          }
        }
        break;
      }
      case SchedEventKind::kAdmit:
        os << " attempt " << e.attempt << (e.hedge ? " (hedge)" : "")
           << " to " << log.BackendName(e.backend);
        if (!e.label.empty()) os << " [" << e.label << "]";
        break;
      case SchedEventKind::kAttemptTimeout:
        os << " on " << log.BackendName(e.backend);
        if (!e.label.empty()) os << "; no retry: " << e.label;
        break;
      case SchedEventKind::kRetry:
        os << " " << e.attempt << " scheduled, backoff "
           << FormatNs(e.value);
        break;
      case SchedEventKind::kHedgeIssue:
        os << " after " << FormatNs(e.value) << " delay";
        break;
      case SchedEventKind::kServe:
      case SchedEventKind::kHedgeWin:
        os << " on " << log.BackendName(e.backend) << ", latency "
           << FormatNs(e.value);
        break;
      case SchedEventKind::kCancel:
        os << " straggler completion from " << log.BackendName(e.backend);
        break;
      case SchedEventKind::kShed:
        if (!e.label.empty()) os << " (" << e.label << ")";
        break;
      case SchedEventKind::kDeadlineMiss:
        os << " (deadline " << FormatNs(e.value) << " after arrival)";
        break;
      default:
        if (e.backend != kNoBackend) {
          os << " " << log.BackendName(e.backend);
        }
        if (!e.label.empty()) os << " (" << e.label << ")";
        break;
    }
    os << "\n";
  }
  return os.str();
}

PostmortemReport PostmortemTrigger::Trigger(const SloSpec& spec,
                                            const SloReport& slo) const {
  PostmortemReport report;
  report.slo_name = slo.name;
  report.objective = slo.objective;
  report.latency_threshold_ns = spec.latency_threshold_ns;
  report.total = slo.total;
  report.bad = slo.bad;
  report.error_budget_remaining = slo.error_budget_remaining;

  const std::vector<SchedEvent> sorted = log_.Sorted();
  const std::size_t fleet = FleetSize(log_);

  // Whole-log kind totals, computed once.
  std::uint64_t totals[16] = {};
  for (const SchedEvent& e : sorted) {
    ++totals[static_cast<std::size_t>(e.kind)];
  }

  for (std::size_t r = 0; r < slo.rules.size(); ++r) {
    const BurnRateRuleResult& rule = slo.rules[r];
    if (!rule.fired) continue;

    PostmortemAlert alert;
    alert.severity = rule.severity;
    alert.burn_threshold = rule.burn_threshold;
    alert.peak_burn = rule.peak_burn;
    alert.alert_ns = rule.first_alert_ns;

    // The fired rule's long window (spec.rules, matched by index).
    Nanoseconds window =
        r < spec.rules.size() ? spec.rules[r].long_window_ns : 0.0;
    if (window <= 0.0) window = alert.alert_ns;  // whole run up to the alert
    alert.window_begin_ns = std::max(0.0, alert.alert_ns - window);

    std::uint64_t window_counts[16] = {};
    std::vector<SchedEvent> in_window;
    for (const SchedEvent& e : sorted) {
      if (e.time_ns > alert.alert_ns) break;
      if (e.time_ns < alert.window_begin_ns) continue;
      ++window_counts[static_cast<std::size_t>(e.kind)];
      in_window.push_back(e);
    }
    alert.events_in_window = in_window.size();
    if (in_window.size() > kPostmortemMaxEvents) {
      in_window.erase(in_window.begin(),
                      in_window.end() -
                          static_cast<std::ptrdiff_t>(kPostmortemMaxEvents));
    }
    alert.events = std::move(in_window);

    for (std::size_t k = 0; k < 16; ++k) {
      if (totals[k] == 0) continue;
      alert.kind_names.push_back(
          SchedEventKindName(static_cast<SchedEventKind>(k)));
      alert.kind_window_counts.push_back(window_counts[k]);
      alert.kind_total_counts.push_back(totals[k]);
    }

    const auto states = BreakerStatesAt(sorted, fleet, alert.alert_ns);
    for (const BreakerAt& b : states) {
      alert.breaker_states.push_back(b.state);
      alert.breaker_open_since_ns.push_back(
          b.state == "open" ? b.since_ns : 0.0);
    }
    report.alerts.push_back(std::move(alert));
  }
  return report;
}

void PostmortemReport::ToJson(JsonWriter& w) const {
  w.BeginObject();
  w.KV("slo", slo_name);
  w.KV("objective", objective);
  w.KV("latency_threshold_ns", latency_threshold_ns);
  w.KV("total", total);
  w.KV("bad", bad);
  w.KV("error_budget_remaining", error_budget_remaining);
  w.Key("alerts");
  w.BeginArray();
  for (const PostmortemAlert& a : alerts) {
    w.BeginObject();
    w.KV("severity", a.severity);
    w.KV("burn_threshold", a.burn_threshold);
    w.KV("peak_burn", a.peak_burn);
    w.KV("alert_ns", a.alert_ns);
    w.KV("window_begin_ns", a.window_begin_ns);
    w.KV("events_in_window", a.events_in_window);
    w.Key("activity");
    w.BeginObject();
    for (std::size_t k = 0; k < a.kind_names.size(); ++k) {
      w.Key(a.kind_names[k]);
      w.BeginObject();
      w.KV("window", a.kind_window_counts[k]);
      w.KV("total", a.kind_total_counts[k]);
      w.EndObject();
    }
    w.EndObject();
    w.Key("breakers");
    w.BeginArray();
    for (std::size_t b = 0; b < a.breaker_states.size(); ++b) {
      w.BeginObject();
      w.KV("backend", static_cast<std::uint64_t>(b));
      w.KV("state", a.breaker_states[b]);
      if (a.breaker_open_since_ns[b] > 0.0) {
        w.KV("open_since_ns", a.breaker_open_since_ns[b]);
      }
      w.EndObject();
    }
    w.EndArray();
    w.Key("events");
    w.BeginArray();
    for (const SchedEvent& e : a.events) WriteSchedEventJson(w, e);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  if (!metrics.counters.empty() || !metrics.gauges.empty()) {
    w.Key("metrics");
    w.BeginObject();
    w.Key("counters");
    w.BeginObject();
    for (const auto& c : metrics.counters) {
      w.KV(FormatMetricName(c.name, c.labels), c.value);
    }
    w.EndObject();
    w.Key("gauges");
    w.BeginObject();
    for (const auto& g : metrics.gauges) {
      w.KV(FormatMetricName(g.name, g.labels), g.value);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
}

std::string PostmortemReport::ToJson() const {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/2);
    ToJson(w);
  }
  os << "\n";
  return os.str();
}

}  // namespace microrec::obs
