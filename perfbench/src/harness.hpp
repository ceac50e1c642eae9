// Measurement vocabulary shared by the benchmark's workloads: a monotonic
// clock, sample summaries (median and the highest percentile that has at
// least ten samples beyond it), an in-memory span recorder with exact
// self-time attribution, and the one-line JSON result the benchmark ends
// with. Everything here is plain arithmetic so it can be self-tested
// (tests/harness_test.cpp) apart from the program under measurement.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds.
std::int64_t NowNs();

/// Busy-waits until NowNs() >= deadline_ns.
void WaitUntilNs(std::int64_t deadline_ns);

/// Peak resident set size of this process, MiB.
double PeakRssMiB();

/// Cumulative (steal, total) CPU jiffies over all CPUs from /proc/stat;
/// {0, 0} where it is unreadable. Steal is time the hypervisor ran other
/// guests on this machine's virtual CPUs.
struct CpuTicks {
  std::uint64_t steal = 0, total = 0;
};
CpuTicks ReadCpuTicks();

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
double Mean(std::span<const double> samples);

/// Mean of the middle half of `samples`: the floor(n/4) smallest and the
/// floor(n/4) largest are dropped. Unlike the median, it moves smoothly
/// when the samples fall into two clusters in varying proportion; unlike
/// the mean, one stalled sample barely moves it.
double MidMean(std::vector<double> samples);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t SamplesBeyond(std::size_t n, double p);

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} that
/// has at least `min_beyond` samples beyond it; 50 when none does.
double TailPercentileFor(std::size_t n, std::size_t min_beyond = 10);

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_pct = 50.0;  ///< which percentile `tail` is
  double tail = 0.0;
  double mean = 0.0;
};
Summary Summarize(const std::vector<double>& samples);

/// One timed call: name, [start, end] in steady-clock ns, the index of the
/// span that caused it (-1 for a root) and the request it served.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

/// Keeps spans in memory (reserve up front so recording does not
/// allocate in the timed loop) and writes them out once, at the end.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve = 0) { spans_.reserve(reserve); }

  /// Opens a span starting now; returns its index.
  std::int64_t Begin(const char* name, std::int64_t parent,
                     std::int64_t request) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void End(std::int64_t span) {
    spans_[static_cast<std::size_t>(span)].end_ns = NowNs();
  }
  /// Records an already-timed span.
  void Add(const Span& span) { spans_.push_back(span); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome trace events (viewable in Perfetto).
  /// Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the span).
std::vector<std::int64_t> SelfTimesNs(std::span<const Span> spans);

/// Durations (or self times) in microseconds of the spans named `name`.
std::vector<double> DurationsUs(std::span<const Span> spans,
                                std::string_view name);
std::vector<double> SelfTimesUs(std::span<const Span> spans,
                                std::span<const std::int64_t> self_ns,
                                std::string_view name);

/// Whether an open loop's backlog was still growing at the end, from each
/// request's wait (start minus due time, in schedule order): the last 10%
/// of requests waited on average more than twice as long as the first 90%,
/// and more than 10 ms. A short stall does not qualify; an offered rate
/// above capacity does.
bool BacklogGrowing(std::span<const std::int64_t> waits_ns);

/// A click probability: finite and in [0, 1].
inline bool ValidProbability(float p) {
  return std::isfinite(p) && p >= 0.0f && p <= 1.0f;
}

/// |a - b| <= 4 ULP at float scale for every element (the FMA contract the
/// repository's wall-clock bench uses against the reference path).
bool MatchesWithinUlps(std::span<const float> a, std::span<const float> b);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The single-line JSON object the benchmark prints last:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string ResultJson(const Result& result);

}  // namespace perfbench
