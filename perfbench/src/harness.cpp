#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "obs/json_writer.hpp"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WaitUntilNs(std::int64_t deadline_ns) {
  // Spin: a sleep's wake-up slack (tens to hundreds of microseconds on a
  // busy host) would be charged to the request as queue wait.
  while (NowNs() < deadline_ns) {
  }
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return ticks;
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {  // user .. steal
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

namespace {

/// 1-based nearest rank of the p-th percentile of n samples.
std::size_t NearestRank(std::size_t n, double p) {
  // The guard keeps binary round-off (99.9 / 100 * 10000 = 9990.000...2)
  // from pushing an exact rank up by one.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double Mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double MidMean(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t cut = samples.size() / 4;
  return Mean(std::span<const double>(samples).subspan(
      cut, samples.size() - 2 * cut));
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

double TailPercentileFor(std::size_t n, std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 50.0;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = Median(samples);
  s.tail_pct = TailPercentileFor(s.n);
  s.tail = Percentile(samples, s.tail_pct);
  s.mean = Mean(samples);
  return s;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  {
    microrec::obs::JsonWriter json(out, /*indent=*/0);
    json.BeginObject();
    json.Key("traceEvents");
    json.BeginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json.BeginObject();
      json.KV("name", s.name);
      json.KV("ph", "X");
      json.KV("pid", 1);
      json.KV("tid", 1);
      json.KV("ts", static_cast<double>(s.start_ns - origin) / 1e3);
      json.KV("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      json.Key("args");
      json.BeginObject();
      json.KV("id", static_cast<std::int64_t>(i));
      json.KV("parent", s.parent);
      json.KV("request", s.request);
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  out << "\n";
  return static_cast<bool>(out);
}

std::vector<std::int64_t> SelfTimesNs(std::span<const Span> spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t s = std::max(lo, spans[c].start_ns);
      const std::int64_t e = std::min(hi, spans[c].end_ns);
      if (s < e) cover.emplace_back(s, e);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (const auto& [s, e] : cover) {
      const std::int64_t from = std::max(s, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<double> DurationsUs(std::span<const Span> spans,
                                std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> SelfTimesUs(std::span<const Span> spans,
                                std::span<const std::int64_t> self_ns,
                                std::string_view name) {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) {
      out.push_back(static_cast<double>(self_ns[i]) / 1e3);
    }
  }
  return out;
}

bool BacklogGrowing(std::span<const std::int64_t> waits_ns) {
  constexpr double kMinTailWaitNs = 10e6;
  const std::size_t n = waits_ns.size();
  const std::size_t tail_from = n - n / 10;
  if (tail_from == 0 || tail_from == n) return false;
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    (i < tail_from ? head : tail) += static_cast<double>(waits_ns[i]);
  }
  head /= static_cast<double>(tail_from);
  tail /= static_cast<double>(n - tail_from);
  return tail > 2.0 * head && tail > kMinTailWaitNs;
}

bool MatchesWithinUlps(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    const float scale = std::max(std::abs(a[i]), std::abs(b[i]));
    if (!(std::abs(a[i] - b[i]) <= 4.0f * scale * 1.1920929e-7f)) {
      return false;
    }
  }
  return true;
}

std::string ResultJson(const Result& result) {
  std::ostringstream out;
  {
    microrec::obs::JsonWriter json(out, /*indent=*/0);
    json.BeginObject();
    json.KV("correct", result.correct);
    json.KV("attempted", result.attempted);
    json.KV("failed", result.failed);
    json.Key("metrics");
    json.BeginObject();
    for (const Metric& m : result.metrics) {
      json.Key(m.name);
      json.BeginObject();
      json.KV("value", m.value);
      json.KV("unit", m.unit);
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
  }
  return out.str();
}

}  // namespace perfbench
