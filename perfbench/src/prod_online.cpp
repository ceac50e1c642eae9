// prod-online: the paper's latency case. Single-item requests on the small
// production model arrive as an open-loop Poisson stream at a fixed rate;
// one client thread serves each request on a 1-thread engine as soon as
// it is due. Every latency is measured from the request's due time, so a
// stall delays the requests behind it the way it would in a server; how
// late the client started a request is its queue wait. The schedule runs in
// segments, each on a freshly built and warmed-up engine; a run in which a
// segment's backlog is still growing at its end is over capacity: its
// requests are counted as failed instead of being reported as a latency.
// The traced run cycles requests through an untraced InferOne, an InferOne
// inside a span, and a replay of its two steps inside spans. InferOne
// gathers through a private call, so the replay's gather is the public
// EmbeddingLayer on a one-query batch; the residual (traced InferOne mean
// minus the replayed gather's and forward's means) shows how far that
// stand-in is from the program.
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "cpu/cpu_engine.hpp"
#include "sched/load_gen.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using microrec::CpuEngine;
using microrec::InferenceScratch;
using microrec::SparseQuery;

/// Offered load, about half the InferOne capacity measured on a 4-core
/// x86 host with AVX2 (service p50 ~0.6 ms). Fixed, so every commit is
/// offered the same traffic.
constexpr double kRateQps = 800.0;
constexpr std::uint64_t kRowCap = 1ull << 18;
constexpr double kZipfTheta = 0.9;
constexpr double kTailPct = 99.0;
/// The schedule is split into this many segments, with the engine rebuilt
/// (and timed as set-up) and warmed up again before each.
constexpr int kSetupReps = 9;
constexpr std::size_t kWarmup = 500;
constexpr std::size_t kReferenceQueries = 64;
/// The replayed gather + forward must explain the traced InferOne mean
/// within this share; beyond it the traced run fails.
constexpr double kAttributionTolerance = 0.25;

struct Request {
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t backlog = 0;  ///< requests already due when this one started
};

/// Serves requests [first, first + n) of the schedule open-loop, starting
/// the schedule's clock at `origin_ns`. `serve(i)` runs request i.
template <typename Serve>
std::vector<Request> OpenLoop(const std::vector<std::int64_t>& arrival_ns,
                              std::size_t first, std::size_t n,
                              std::int64_t origin_ns, Serve&& serve) {
  std::vector<Request> out(n);
  std::size_t due_count = first;  // requests with due <= the current start
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = first + k;
    Request& r = out[k];
    r.due_ns = origin_ns + arrival_ns[i];
    WaitUntilNs(r.due_ns);
    r.start_ns = NowNs();
    while (due_count < first + n &&
           origin_ns + arrival_ns[due_count] <= r.start_ns) {
      ++due_count;
    }
    r.backlog = due_count - i - 1;
    serve(i);
    r.end_ns = NowNs();
  }
  return out;
}

bool OverCapacity(std::span<const Request> reqs) {
  std::vector<std::int64_t> waits;
  for (const Request& r : reqs) waits.push_back(r.start_ns - r.due_ns);
  return BacklogGrowing(waits);
}

/// Warm-up outputs of a rebuilt engine that are not bit-identical to the
/// first engine's.
std::uint64_t FailedWarmups(std::span<const float> warm,
                            std::span<const float> first) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    if (warm[i] != first[i]) ++failed;
  }
  return failed;
}

/// The requests of all segments in schedule order, the summed time from
/// each segment's first due time to its last completion, and whether any
/// segment's backlog was still growing at its end.
struct Served {
  std::vector<Request> reqs;
  double span_s = 0.0;
  bool over_capacity = false;
};

}  // namespace

Result RunProdOnline(const RunConfig& config) {
  Result result;
  const microrec::RecModelSpec model = microrec::SmallProductionModel();

  // Inputs: the request schedule and the queries, both from the seed.
  const auto n_total =
      static_cast<std::size_t>(kRateQps * config.seconds) + kWarmup;
  microrec::sched::LoadGenConfig load;
  load.process = microrec::sched::ArrivalProcess::kPoisson;
  load.rate_qps = kRateQps;
  load.num_queries = n_total;
  load.seed = microrec::HashSeed(config.seed, 1);
  std::vector<std::int64_t> arrival_ns;
  arrival_ns.reserve(n_total);
  for (const auto& q : microrec::sched::GenerateLoad(load)) {
    arrival_ns.push_back(static_cast<std::int64_t>(q.arrival_ns));
  }
  microrec::QueryGenerator gen(model, microrec::IndexDistribution::kZipf,
                               config.seed, kZipfTheta);
  std::vector<SparseQuery> queries = gen.NextBatch(n_total);

  SpanRecorder rec(8 * n_total);
  std::optional<CpuEngine> engine;
  InferenceScratch scratch;
  std::vector<double> setup_s;
  std::vector<float> warm(kWarmup);
  // Builds the engine and warms it up on the warm-up queries (untimed).
  auto materialize = [&] {
    setup_s.push_back(MaterializeEngine(model, kRowCap, 1, engine, rec));
    engine->ReserveScratch(scratch, 1);
    for (std::size_t i = 0; i < kWarmup; ++i) {
      warm[i] = engine->InferOne(queries[i], scratch);
    }
  };
  materialize();
  std::printf("prod-online: %s, %zu tables, row cap %llu, Zipf %.1f, "
              "Poisson %.0f req/s, 1 engine thread, seed %llu\n",
              model.name.c_str(), model.tables.size(),
              static_cast<unsigned long long>(kRowCap), kZipfTheta, kRateQps,
              static_cast<unsigned long long>(config.seed));

  // The warm-up's outputs: a sample is checked against the reference path,
  // and every rebuilt engine must reproduce them bit for bit.
  const std::vector<float> first_warm = warm;
  const std::vector<float> ref = engine->InferBatchReference(
      std::span<const SparseQuery>(queries).first(kReferenceQueries));
  for (std::size_t i = 0; i < kWarmup; ++i) {
    ++result.attempted;
    const bool ok = ValidProbability(warm[i]) &&
                    (i >= kReferenceQueries ||
                     MatchesWithinUlps({&warm[i], 1}, {&ref[i], 1}));
    if (!ok) ++result.failed;
  }

  // The warm-up requests are not replayed. Each segment of the schedule
  // starts its clock 1 ms after its engine is ready.
  const std::size_t n = n_total - kWarmup;
  auto check = [&](float p) {
    ++result.attempted;
    if (!ValidProbability(p)) ++result.failed;
  };
  double rss_mib = 0.0;  // peak RSS over the first engine's life
  auto serve_segments = [&](auto&& serve) {
    Served out;
    for (int seg = 0; seg < kSetupReps; ++seg) {
      const std::size_t first = kWarmup + seg * n / kSetupReps;
      const std::size_t last = kWarmup + (seg + 1) * n / kSetupReps;
      if (seg > 0) {
        materialize();
        result.attempted += kWarmup;
        result.failed += FailedWarmups(warm, first_warm);
      }
      const std::int64_t origin = NowNs() + 1'000'000 - arrival_ns[first];
      const std::vector<Request> part =
          OpenLoop(arrival_ns, first, last - first, origin, serve);
      if (seg == 0) rss_mib = PeakRssMiB();
      out.span_s +=
          static_cast<double>(part.back().end_ns - part.front().due_ns) / 1e9;
      out.over_capacity = out.over_capacity || OverCapacity(part);
      out.reqs.insert(out.reqs.end(), part.begin(), part.end());
    }
    return out;
  };

  if (!config.trace) {
    const Served served = serve_segments(
        [&](std::size_t i) { check(engine->InferOne(queries[i], scratch)); });
    const std::vector<Request>& reqs = served.reqs;
    std::vector<double> lat_us(n);
    for (std::size_t i = 0; i < n; ++i) {
      lat_us[i] = static_cast<double>(reqs[i].end_ns - reqs[i].due_ns) / 1e3;
    }
    if (served.over_capacity) {
      std::printf("prod-online: OVER CAPACITY at %.0f req/s: the backlog is "
                  "still growing at the end of a segment; every request counts "
                  "as failed\n",
                  kRateQps);
      result.failed += n;
    }
    std::printf("prod-online: %zu requests timed from their due time; p50 "
                "%.1f us, p%g %.1f us (%zu beyond it)\n",
                n, Percentile(lat_us, 50.0), kTailPct,
                Percentile(lat_us, kTailPct), SamplesBeyond(n, kTailPct));
    result.Add("setup_s", MidMean(setup_s), "s");
    result.Add("rss_peak_mib", rss_mib, "MiB");
    result.Add("throughput_qps", static_cast<double>(n) / served.span_s,
               "1/s");
    result.Add("latency_p50_us", Percentile(lat_us, 50.0), "us");
    return result;
  }

  // Traced run: requests cycle through an untraced InferOne (the overhead
  // baseline and the latency sample), an InferOne inside a span, and the
  // replay: EmbeddingLayer on a one-query span, then ForwardOne through
  // engine.mlp(), each inside a span.
  const Served served = serve_segments([&](std::size_t i) {
    const auto id = static_cast<std::int64_t>(i);
    if (i % 3 == 0) {
      check(engine->InferOne(queries[i], scratch));
      return;
    }
    if (i % 3 == 1) {
      const std::int64_t span = rec.Begin("online.request", -1, id);
      const float p = engine->InferOne(queries[i], scratch);
      rec.End(span);
      check(p);
      return;
    }
    const std::int64_t root = rec.Begin("online.replay", -1, id);
    const std::int64_t g = rec.Begin("cpu.gather_one", root, id);
    engine->EmbeddingLayer(std::span<const SparseQuery>(&queries[i], 1),
                           scratch.features);
    rec.End(g);
    const std::int64_t f = rec.Begin("nn.forward_one", root, id);
    const float p =
        engine->mlp().ForwardOne(scratch.features.row(0), scratch.mlp);
    rec.End(f);
    rec.End(root);
    check(p);
  });
  const std::vector<Request>& reqs = served.reqs;
  std::vector<double> untraced_service_us, untraced_latency_us;
  std::size_t backlog_max = 0;
  double busy_ns = 0.0;
  for (std::size_t k = 0; k < reqs.size(); ++k) {
    const Request& r = reqs[k];
    const std::size_t i = kWarmup + k;
    rec.Add({"online.queue_wait", r.due_ns, r.start_ns, -1,
             static_cast<std::int64_t>(i)});
    if (i % 3 == 0) {
      untraced_service_us.push_back(static_cast<double>(r.end_ns - r.start_ns) /
                                    1e3);
      untraced_latency_us.push_back(static_cast<double>(r.end_ns - r.due_ns) /
                                    1e3);
    }
    backlog_max = std::max(backlog_max, r.backlog);
    busy_ns += static_cast<double>(r.end_ns - r.start_ns);
  }
  const double utilization = busy_ns / (served.span_s * 1e9);

  const auto& spans = rec.spans();
  const Summary request = Summarize(DurationsUs(spans, "online.request"));
  const Summary gather = Summarize(DurationsUs(spans, "cpu.gather_one"));
  const Summary forward = Summarize(DurationsUs(spans, "nn.forward_one"));
  const Summary wait = Summarize(DurationsUs(spans, "online.queue_wait"));
  const double residual_us = request.mean - gather.mean - forward.mean;
  const bool attributed =
      std::abs(residual_us) <= kAttributionTolerance * request.mean;
  if (!attributed) result.correct = false;
  std::printf("prod-online traced: %zu requests each; mean us: gather %.1f "
              "+ forward %.1f + residual %.2f = InferOne %.1f; queue wait "
              "p50 %.1f us; utilization %.2f; span tails are p%g; latency "
              "p%g over %zu untraced requests%s\n",
              request.n, gather.mean, forward.mean, residual_us, request.mean,
              wait.p50, utilization, request.tail_pct, kTailPct,
              untraced_latency_us.size(),
              served.over_capacity ? "; OVER CAPACITY" : "");
  if (!attributed) {
    std::printf("prod-online traced: ATTRIBUTION FAILED: the replayed gather "
                "+ forward differ from InferOne by more than %.0f%%\n",
                100.0 * kAttributionTolerance);
  }

  result.Add("embedding.materialize_s", MidMean(setup_s), "s");
  result.Add("cpu.gather_one_us.p50", gather.p50, "us");
  result.Add("cpu.gather_one_us.tail", gather.tail, "us");
  result.Add("nn.forward_one_us.p50", forward.p50, "us");
  result.Add("nn.forward_one_us.tail", forward.tail, "us");
  result.Add("nn.forward_one_gflops",
             ForwardFlopsPerItem(model.mlp) / (forward.p50 * 1e3), "GFLOP/s");
  result.Add("online.service_us.p50", request.p50, "us");
  result.Add("online.service_us.tail", request.tail, "us");
  result.Add("online.residual_us.mean", residual_us, "us");
  result.Add("online.queue_wait_us.p50", wait.p50, "us");
  result.Add("online.queue_wait_us.tail", wait.tail, "us");
  result.Add("online.backlog_max", static_cast<double>(backlog_max), "count");
  result.Add("online.utilization", utilization, "ratio");
  result.Add("online.latency_p99_us", Percentile(untraced_latency_us, kTailPct),
             "us");
  result.Add("trace.overhead_frac",
             request.p50 / Median(untraced_service_us) - 1.0, "ratio");
  result.Add("trace.spans", static_cast<double>(spans.size()), "count");
  if (!WriteTrace(config, rec)) result.correct = false;
  return result;
}

}  // namespace perfbench
