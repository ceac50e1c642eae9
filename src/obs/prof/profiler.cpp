#include "obs/prof/profiler.hpp"

namespace microrec::obs::prof {

namespace {

/// Per-batch wall-latency histogram resolution: 1 us first bucket, 1.1x
/// growth, 192 buckets reaches ~85 s with <=10% quantile error.
constexpr HistogramOptions kBatchHistogram{
    .min_value = 1e3, .growth = 1.1, .num_buckets = 192};

CounterGroup OpenFor(ProfBackend requested) {
  switch (requested) {
    case ProfBackend::kPerfEvent:
      return CounterGroup::Open();
    case ProfBackend::kTimer:
      return CounterGroup::OpenTimerOnly();
    case ProfBackend::kNull:
      return CounterGroup::OpenNull();
  }
  return CounterGroup::OpenNull();
}

}  // namespace

HwProfiler::HwProfiler(ProfilerOptions opts)
    : group_(OpenFor(opts.backend)), batch_latency_(kBatchHistogram) {}

void HwProfiler::AddPhaseSample(std::string_view phase,
                                const CounterDelta& delta) {
  auto it = phases_.find(phase);
  if (it == phases_.end()) {
    it = phases_.emplace(std::string(phase), PhaseStats{}).first;
  }
  PhaseStats& stats = it->second;
  ++stats.calls;
  stats.totals += delta;
}

void HwProfiler::AddPhaseWork(std::string_view phase, double bytes,
                              double flops) {
  auto it = phases_.find(phase);
  if (it == phases_.end()) {
    it = phases_.emplace(std::string(phase), PhaseStats{}).first;
  }
  it->second.bytes += bytes;
  it->second.flops += flops;
}

}  // namespace microrec::obs::prof
