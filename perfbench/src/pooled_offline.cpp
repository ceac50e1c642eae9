// pooled-offline: closed-loop batch scoring on the gather-heavy pooled
// model. One client issues back-to-back InferBatch calls at batch 256 on a
// 1-thread engine, which runs each batch on the client thread: a larger
// pool waits for its slowest worker at every batch, so on a shared host it
// measures the other tenants' load more than the program. The run is split
// into segments with the engine rebuilt before each, so set-up is timed
// throughout the run. The traced run cycles through three kinds of batch:
// an InferBatch timed without the recorder (the overhead baseline), an
// InferBatch inside a span, and a replay of the public calls InferBatch is
// made of -- CpuEngine::EmbeddingLayer, then MlpModel::ForwardBatch through
// engine.mlp() -- each inside its own span. The residual is the traced
// InferBatch's mean minus the replayed gather's and forward's means, so the
// three add up to the traced InferBatch time; work InferBatch does outside
// those two calls shows up in it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "cpu/cpu_engine.hpp"
#include "tensor/packed_rows.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using microrec::CpuEngine;
using microrec::InferenceScratch;
using microrec::SparseQuery;

constexpr std::size_t kBatch = 256;
constexpr std::size_t kInputBatches = 16;  // distinct batches, cycled
constexpr std::size_t kReferenceBatches = 2;  // checked against the reference
constexpr std::uint64_t kRowCap = 1ull << 16;
/// The run is split into this many segments, with the engine rebuilt
/// (and timed as set-up) before each.
constexpr int kSetupReps = 9;
constexpr std::size_t kWindowsPerSegment = 4;
/// The replayed gather + forward must explain the traced InferBatch mean
/// within this share; beyond it the per-layer split is no longer the
/// program's and the traced run fails.
constexpr double kAttributionTolerance = 0.25;

using Batch = std::vector<SparseQuery>;

/// Queries in a batch whose probability is not finite or not in [0, 1],
/// or differs from `expected` (bitwise when `exact`, else within 4 ULP).
std::uint64_t FailedQueries(std::span<const float> probs,
                            std::span<const float> expected, bool exact) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const float p = probs[i];
    bool ok = ValidProbability(p);
    if (i >= expected.size()) {
      ok = false;
    } else if (exact) {
      ok = ok && p == expected[i];
    } else {
      ok = ok && MatchesWithinUlps(probs.subspan(i, 1), expected.subspan(i, 1));
    }
    if (!ok) ++failed;
  }
  return failed;
}

}  // namespace

Result RunPooledOffline(const RunConfig& config) {
  Result result;
  const microrec::RecModelSpec model = microrec::PooledCpuGateModel();

  microrec::QueryGenerator gen(model, microrec::IndexDistribution::kUniform,
                               config.seed);
  std::vector<Batch> batches(kInputBatches);
  for (Batch& b : batches) b = gen.NextBatch(kBatch);

  // Work per batch, computed from tensor sizes (not measured): the row
  // bytes the gather reads, and the forward pass's FLOPs.
  double gather_bytes = 0.0;
  for (const auto& t : model.tables) {
    gather_bytes += static_cast<double>(model.lookups_per_table) *
                    microrec::PackedRowStride(t.dim) * sizeof(float);
  }
  gather_bytes *= kBatch;
  const double forward_flops = ForwardFlopsPerItem(model.mlp) * kBatch;

  SpanRecorder rec(1 << 16);
  std::optional<CpuEngine> engine;
  InferenceScratch scratch;
  std::vector<double> setup_s;
  auto materialize = [&] {
    setup_s.push_back(MaterializeEngine(model, kRowCap, 1, engine, rec));
    engine->ReserveScratch(scratch, kBatch);
  };
  materialize();
  std::printf("pooled-offline: %s, %zu tables x %u lookups x dim %u, batch "
              "%zu, 1 engine thread, seed %llu\n",
              model.name.c_str(), model.tables.size(),
              model.lookups_per_table, model.tables[0].dim, kBatch,
              static_cast<unsigned long long>(config.seed));

  // Warm-up pass over every batch; its outputs are the expected values for
  // the timed loops, and the first batches are checked against the frozen
  // reference path within 4 ULP.
  std::vector<std::vector<float>> expected(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto probs = engine->InferBatch(batches[b], scratch);
    expected[b].assign(probs.begin(), probs.end());
    result.attempted += kBatch;
    result.failed += FailedQueries(
        expected[b],
        b < kReferenceBatches ? engine->InferBatchReference(batches[b])
                              : expected[b],
        /*exact=*/false);
  }

  // One untraced InferBatch; every output must be bit-identical to the
  // warm-up's output for the same batch. Returns its [start, end].
  auto infer = [&](std::size_t b) {
    const std::int64_t t0 = NowNs();
    const auto probs = engine->InferBatch(batches[b], scratch);
    const std::int64_t t1 = NowNs();
    result.attempted += kBatch;
    result.failed += FailedQueries(probs, expected[b], /*exact=*/true);
    return std::pair{t0, t1};
  };
  double rss_mib = 0.0;  // peak RSS over the first engine's life
  // Runs step(0), step(1), ... back to back for config.seconds, split into
  // kSetupReps segments with the engine rebuilt between them (outside the
  // timed steps); returns the step count at the end of each segment.
  auto run_segments = [&](auto&& step) {
    const auto segment_ns =
        static_cast<std::int64_t>(config.seconds * 1e9 / kSetupReps);
    std::vector<std::size_t> ends;
    std::size_t i = 0;
    for (int seg = 0; seg < kSetupReps; ++seg) {
      if (seg > 0) materialize();
      const std::int64_t stop = NowNs() + segment_ns;
      while (NowNs() < stop) step(i++);
      if (seg == 0) rss_mib = PeakRssMiB();
      ends.push_back(i);
    }
    return ends;
  };

  if (!config.trace) {
    std::vector<std::int64_t> start_ns, end_ns;
    std::vector<double> lat_us;
    const std::vector<std::size_t> ends = run_segments([&](std::size_t i) {
      const auto [t0, t1] = infer(i % batches.size());
      start_ns.push_back(t0);
      end_ns.push_back(t1);
      lat_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    });
    // Throughput per contiguous window of batches inside a segment, then the
    // median window: robust to a stall without hiding a slower steady state.
    std::vector<double> window_qps;
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
      const std::size_t per =
          std::max<std::size_t>(1, (end - begin) / kWindowsPerSegment);
      for (std::size_t lo = begin; lo + per <= end; lo += per) {
        const double span_s =
            static_cast<double>(end_ns[lo + per - 1] - start_ns[lo]) / 1e9;
        window_qps.push_back(static_cast<double>(per * kBatch) / span_s);
      }
      begin = end;
    }
    std::printf("pooled-offline: %zu batches, throughput over %zu windows; "
                "set-up repeated before each of %d segments\n",
                lat_us.size(), window_qps.size(), kSetupReps);
    result.Add("setup_s", MidMean(setup_s), "s");
    result.Add("rss_peak_mib", rss_mib, "MiB");
    result.Add("throughput_qps", Median(window_qps), "1/s");
    result.Add("latency_p50_us", Percentile(lat_us, 50.0), "us");
    return result;
  }

  // Traced run: batches cycle through an untraced InferBatch, a traced
  // InferBatch and a traced replay of its two public calls, so all three
  // see the same host conditions.
  std::vector<double> untraced_us;
  run_segments([&](std::size_t i) {
    const std::size_t b = i % batches.size();
    const auto request = static_cast<std::int64_t>(i);
    if (i % 3 == 0) {
      const auto [t0, t1] = infer(b);
      untraced_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      return;
    }
    if (i % 3 == 1) {
      const std::int64_t span = rec.Begin("cpu.infer_batch", -1, request);
      const auto probs = engine->InferBatch(batches[b], scratch);
      rec.End(span);
      result.attempted += kBatch;
      result.failed += FailedQueries(probs, expected[b], /*exact=*/true);
      return;
    }
    const std::int64_t root = rec.Begin("cpu.replay", -1, request);
    const std::int64_t g = rec.Begin("cpu.gather", root, request);
    engine->EmbeddingLayer(batches[b], scratch.features);
    rec.End(g);
    scratch.probs.resize(batches[b].size());
    const std::int64_t f = rec.Begin("nn.forward_batch", root, request);
    engine->mlp().ForwardBatch(scratch.features, scratch.mlp, scratch.probs);
    rec.End(f);
    rec.End(root);
    result.attempted += kBatch;
    result.failed += FailedQueries(scratch.probs, expected[b], /*exact=*/false);
  });

  const auto& spans = rec.spans();
  const Summary batch = Summarize(DurationsUs(spans, "cpu.infer_batch"));
  const Summary gather = Summarize(DurationsUs(spans, "cpu.gather"));
  const Summary forward = Summarize(DurationsUs(spans, "nn.forward_batch"));
  const double residual_us = batch.mean - gather.mean - forward.mean;
  const bool attributed =
      std::abs(residual_us) <= kAttributionTolerance * batch.mean;
  if (!attributed) result.correct = false;
  std::printf("pooled-offline traced: %zu batches each; mean us: gather %.1f "
              "+ forward %.1f + residual %.1f = InferBatch %.1f; tail is "
              "p%g\n",
              batch.n, gather.mean, forward.mean, residual_us, batch.mean,
              batch.tail_pct);
  if (!attributed) {
    std::printf("pooled-offline traced: ATTRIBUTION FAILED: the replayed "
                "gather + forward differ from InferBatch by more than "
                "%.0f%%\n",
                100.0 * kAttributionTolerance);
  }
  std::printf("pooled-offline traced: gather share %.1f%%; GB/s and GFLOP/s "
              "are computed from tensor sizes, not counted\n",
              100.0 * gather.mean / batch.mean);

  result.Add("embedding.materialize_s", MidMean(setup_s), "s");
  result.Add("cpu.infer_batch_us.p50", batch.p50, "us");
  result.Add("cpu.infer_batch_us.tail", batch.tail, "us");
  result.Add("cpu.infer_batch_us.mean", batch.mean, "us");
  result.Add("cpu.gather_us.p50", gather.p50, "us");
  result.Add("cpu.gather_us.tail", gather.tail, "us");
  result.Add("cpu.gather_us.mean", gather.mean, "us");
  result.Add("cpu.gather_gbps", gather_bytes / (gather.p50 * 1e3), "GB/s");
  result.Add("nn.forward_batch_us.p50", forward.p50, "us");
  result.Add("nn.forward_batch_us.tail", forward.tail, "us");
  result.Add("nn.forward_batch_us.mean", forward.mean, "us");
  result.Add("nn.forward_batch_gflops", forward_flops / (forward.p50 * 1e3),
             "GFLOP/s");
  result.Add("cpu.batch_residual_us.mean", residual_us, "us");
  result.Add("trace.overhead_frac", batch.p50 / Median(untraced_us) - 1.0,
             "ratio");
  result.Add("trace.spans", static_cast<double>(spans.size()), "count");
  if (!WriteTrace(config, rec)) result.correct = false;
  return result;
}

}  // namespace perfbench
