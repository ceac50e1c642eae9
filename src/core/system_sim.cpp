#include "core/system_sim.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "obs/quantiles.hpp"
#include "obs/timeseries.hpp"

namespace microrec {

namespace {

// Track layout for the span tracer: track 0 is the async query lane,
// stages take 1..num_stages, banks follow. Spans on a stage or bank track
// never overlap because the underlying resource serves one item at a time.
constexpr obs::TrackId kQueryTrack = 0;

obs::TrackId StageTrack(std::size_t stage) {
  return static_cast<obs::TrackId>(1 + stage);
}

obs::TrackId BankTrack(std::size_t num_stages, std::uint32_t bank) {
  return static_cast<obs::TrackId>(1 + num_stages + bank);
}

/// Collects per-(item, stage) shares for the attribution table and emits
/// stage service spans for sampled items.
class AttributionObserver final : public DataflowStageObserver {
 public:
  AttributionObserver(std::size_t num_items,
                      const std::vector<StageTiming>& stages,
                      obs::SpanTracer* tracer)
      : stages_(stages), tracer_(tracer) {
    share_.assign(stages.size(), std::vector<Nanoseconds>(num_items, 0.0));
  }

  void OnStageServe(std::size_t item, std::size_t stage, Nanoseconds ready_ns,
                    Nanoseconds enter_ns, Nanoseconds exit_ns) override {
    // An item's latency decomposes exactly into per-stage
    // (FIFO wait + service) shares: ready(stage 0) is its arrival and each
    // later ready is the previous stage's exit.
    share_[stage][item] = exit_ns - ready_ns;
    if (tracer_ != nullptr && tracer_->SampleQuery(item)) {
      tracer_->CompleteSpan(StageTrack(stage), stages_[stage].name, enter_ns,
                            exit_ns, item);
    }
  }

  const std::vector<std::vector<Nanoseconds>>& share() const { return share_; }

 private:
  const std::vector<StageTiming>& stages_;
  obs::SpanTracer* tracer_;
  std::vector<std::vector<Nanoseconds>> share_;  // [stage][item]
};

}  // namespace

SystemSimulator::SystemSimulator(const MicroRecEngine& engine)
    : engine_(engine) {}

SystemSimReport SystemSimulator::Run(std::uint64_t num_items,
                                     Nanoseconds inter_arrival_ns) {
  MICROREC_CHECK(num_items >= 1);
  std::vector<Nanoseconds> arrivals(num_items);
  for (std::uint64_t i = 0; i < num_items; ++i) {
    arrivals[i] = static_cast<double>(i) * inter_arrival_ns;
  }
  return RunArrivals(arrivals);
}

SystemSimReport SystemSimulator::RunArrivals(
    const std::vector<Nanoseconds>& arrivals) {
  MICROREC_CHECK(!arrivals.empty());
  const std::uint64_t num_items = arrivals.size();

  // Fresh memory system for the run.
  HybridMemorySystem memory(engine_.options().platform);
  const std::vector<BankAccess> accesses =
      engine_.plan().ToBankAccesses(engine_.model().lookups_per_table);

  const std::vector<StageTiming>& stage_timings = engine_.timing().stages;
  DataflowPipeline pipeline(stage_timings);

  // ---- Optional telemetry (pure observation; see header contract). ----
  obs::MetricsRegistry* metrics = telemetry_.metrics;
  obs::SpanTracer* tracer = telemetry_.tracer;
  obs::TimeSeriesRecorder* timeseries = telemetry_.timeseries;
  const bool instrumented = telemetry_.active();

  std::optional<MemsimTelemetry> memsim_telemetry;
  if (metrics != nullptr || timeseries != nullptr) {
    memsim_telemetry.emplace(metrics, timeseries, engine_.options().platform);
    memory.set_telemetry(&*memsim_telemetry);
  }
  if (tracer != nullptr) {
    tracer->SetTrackName(kQueryTrack, "queries (async)");
    for (std::size_t j = 0; j < stage_timings.size(); ++j) {
      tracer->SetTrackName(StageTrack(j),
                           "stage " + stage_timings[j].name);
      tracer->SetTrackKind(StageTrack(j), obs::TrackKind::kStage);
    }
    for (const auto& access : accesses) {
      const obs::TrackId track = BankTrack(stage_timings.size(), access.bank);
      tracer->SetTrackName(
          track,
          std::string(MemoryKindName(
              engine_.options().platform.KindOfBank(access.bank))) +
              " bank " + std::to_string(access.bank));
      tracer->SetTrackKind(track, obs::TrackKind::kBank);
    }
  }
  std::optional<AttributionObserver> observer;
  if (instrumented) {
    observer.emplace(num_items, stage_timings, tracer);
  }
  const obs::HistogramOptions latency_opts{1.0, 1.25, 96};
  obs::Histogram* lookup_hist =
      metrics == nullptr
          ? nullptr
          : &metrics->histogram("system_lookup_latency_ns", {}, latency_opts);

  double lookup_latency_sum = 0.0;
  double lookup_latency_max = 0.0;
  // One scratch result reused across every item: after the first item the
  // per-item lookup issue allocates nothing.
  LookupBatchResult batch;
  const auto result = pipeline.Run(
      arrivals,
      [&](std::size_t item, std::size_t stage,
          Nanoseconds enter_ns) -> Nanoseconds {
        if (stage != 0) return -1.0;  // compute stages keep their defaults
        memory.IssueBatchInto(accesses, enter_ns, batch);
        lookup_latency_sum += batch.latency_ns();
        lookup_latency_max = std::max(lookup_latency_max, batch.latency_ns());
        if (lookup_hist != nullptr) lookup_hist->Observe(batch.latency_ns());
        if (tracer != nullptr && tracer->SampleQuery(item)) {
          // Per-channel access spans: children of the embedding stage span
          // in time, rendered on their bank's own track.
          for (std::size_t a = 0; a < batch.completions.size(); ++a) {
            const MemCompletion& done = batch.completions[a];
            tracer->CompleteSpan(
                BankTrack(stage_timings.size(), accesses[a].bank),
                "lookup t" + std::to_string(done.tag), done.start_ns,
                done.completion_ns, item);
          }
        }
        return batch.latency_ns();
      },
      observer ? &*observer : nullptr);

  SystemSimReport report;
  report.items = num_items;
  report.makespan_ns = result.makespan_ns;
  report.throughput_items_per_s = result.throughput_items_per_s();
  std::vector<double> latencies(result.items.size());
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    latencies[i] = result.items[i].latency_ns();
  }
  // Attribution decomposes the p99-ranked item, picked by the shared
  // argsort + rank helper before the in-place sort below.
  const std::size_t p99_item =
      instrumented ? obs::ArgQuantileIndex(latencies, 0.99) : 0;
  std::sort(latencies.begin(), latencies.end());
  report.item_latency_p50 = obs::SortedQuantile(latencies, 0.50);
  report.item_latency_p99 = obs::SortedQuantile(latencies, 0.99);
  report.item_latency_max = latencies.back();
  report.lookup_latency_mean =
      lookup_latency_sum / static_cast<double>(num_items);
  report.lookup_latency_max = lookup_latency_max;

  double peak = 0.0;
  for (std::uint32_t b = 0; b < memory.num_banks(); ++b) {
    if (result.makespan_ns > 0.0) {
      peak = std::max(peak, memory.bank_stats(b).busy_ns / result.makespan_ns);
    }
  }
  report.peak_bank_utilization = peak;

  if (instrumented) {
    // Per-query async spans (end-to-end), sampled like everything else.
    if (tracer != nullptr) {
      for (std::size_t i = 0; i < result.items.size(); ++i) {
        if (!tracer->SampleQuery(i)) continue;
        tracer->AsyncSpan("query " + std::to_string(i), i,
                          result.items[i].arrival_ns,
                          result.items[i].completion_ns);
      }
    }

    // Attribution: the p99-ranked item's latency decomposed per stage, so
    // the table's rows sum exactly to an observed end-to-end latency.
    report.p99_item_latency_ns = result.items[p99_item].latency_ns();

    const auto& share = observer->share();
    report.attribution.reserve(stage_timings.size());
    for (std::size_t j = 0; j < stage_timings.size(); ++j) {
      StageAttribution attr;
      attr.name = stage_timings[j].name;
      double sum = 0.0;
      for (const Nanoseconds v : share[j]) sum += v;
      attr.mean_ns = sum / static_cast<double>(num_items);
      attr.p99_item_ns = share[j][p99_item];
      attr.busy_ns = result.stages[j].busy_ns;
      attr.starved_ns = result.stages[j].starved_ns;
      attr.blocked_ns = result.stages[j].blocked_ns;
      attr.occupancy = result.stages[j].occupancy(result.makespan_ns);
      report.attribution.push_back(std::move(attr));
    }

    if (metrics != nullptr) {
      metrics->counter("system_items_total").Inc(num_items);
      auto& item_hist =
          metrics->histogram("system_item_latency_ns", {}, latency_opts);
      for (const auto& item : result.items) {
        item_hist.Observe(item.latency_ns());
      }
      for (std::size_t j = 0; j < result.stages.size(); ++j) {
        const obs::MetricLabels labels{{"stage", result.stages[j].name}};
        metrics->gauge("pipeline_stage_busy_ns", labels)
            .Set(result.stages[j].busy_ns);
        metrics->gauge("pipeline_stage_starved_ns", labels)
            .Set(result.stages[j].starved_ns);
        metrics->gauge("pipeline_stage_blocked_ns", labels)
            .Set(result.stages[j].blocked_ns);
        metrics->gauge("pipeline_stage_occupancy", labels)
            .Set(result.stages[j].occupancy(result.makespan_ns));
      }
      metrics->gauge("system_peak_bank_utilization")
          .Set(report.peak_bank_utilization);
      metrics->gauge("system_throughput_items_per_s")
          .Set(report.throughput_items_per_s);
    }
  }
  return report;
}

}  // namespace microrec
