// Microbenchmarks of the measured CPU hot kernels, with scalar-vs-AVX2
// speedups reported per kernel (perf extension, DESIGN.md section 16).
//
// Three kernel families make up the measured CPU inference path:
//
//   * gather/sum-pool over the packed row layout (GB/s) -- the memory-bound
//     embedding stage;
//   * GEMM with the fused bias+ReLU epilogue (GOP/s) and the batch-1 GEMV
//     -- the compute-bound FC stage;
//   * the CpuEngine end-to-end path (queries/s at batch 1/64/256,
//     optimized scratch path vs the frozen pre-optimization reference).
//
// Both the scalar/blocked and the AVX2 variant of every kernel are ALWAYS
// measured, and each record carries the speedup plus an exactness bool
// (AVX2 result vs its reference within the documented contract: bit-exact
// for the gather; the property-tested 1e-4*K absolute bound for FMA
// kernels, whose contraction error over a K-term dot product is not
// bounded in ULPs of the -- possibly cancelled -- final value; a few ULP
// for the sigmoid-compressed engine output). The perf gate hard-compares the
// booleans -- including `avx2_supported` -- so a silent fall-back to the
// scalar path on a host that has AVX2 fails the gate even though the
// wall-clock rates themselves are declared volatile.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_prof_util.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table_printer.hpp"
#include "cpu/cpu_engine.hpp"
#include "tensor/gather.hpp"
#include "tensor/gemm.hpp"
#include "workload/model_zoo.hpp"
#include "workload/query_gen.hpp"

using namespace microrec;

namespace {

constexpr int kReps = 9;

/// |a-b| <= 4 ULP at float scale (engine-output contract: sigmoid
/// compresses the MLP's accumulation error to a few ULP).
bool WithinUlps(float a, float b) {
  if (a == b) return true;
  const float scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= 4.0f * scale * 1.1920929e-7f;
}

bool AllWithinUlps(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!WithinUlps(a[i], b[i])) return false;
  }
  return true;
}

/// FMA-kernel contract, identical to the tensor_test property bound:
/// contraction reassociates a K-term dot product, so the error scales
/// with K (absolutely, not in ULPs of a possibly-cancelled final value).
bool AllNearAbs(std::span<const float> a, std::span<const float> b,
                float tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(std::abs(a[i] - b[i]) <= tol)) return false;
  }
  return true;
}

bool BitExact(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

struct KernelRow {
  std::string kernel;
  double scalar_rate = 0.0;  ///< GB/s, GOP/s or q/s, scalar/reference variant
  double avx2_rate = 0.0;    ///< same unit, AVX2/optimized (0 if unsupported)
  std::string unit;
  bool exact = true;  ///< AVX2 matched its reference within contract
};

}  // namespace

int main() {
  bench::PrintHeader("CPU kernel microbenchmarks: scalar vs AVX2",
                     "perf extension (hardware-fast CPU engine, "
                     "DESIGN.md s16)");
  const bool avx2 = CpuSupportsAvx2();
  std::printf("host AVX2+FMA: %s\n", avx2 ? "yes" : "no");

  std::vector<KernelRow> rows;
  Rng rng(42);

  // ------------------------------------------------ gather/sum-pool (GB/s)
  // DLRM-style pooled gather: 80 lookups over a 64-dim table. The physical
  // row count is a power of two so index wrapping is a mask, and the table
  // (16 MiB) is large enough that random rows come from beyond L2.
  {
    constexpr std::uint64_t kRows = 1ull << 16;
    constexpr std::uint32_t kDim = 64;
    constexpr std::size_t kLookups = 80;
    constexpr std::size_t kQueries = 512;
    PackedRowBuffer table(kRows, kDim);
    for (std::uint64_t r = 0; r < kRows; ++r) {
      for (float& v : table.row(r)) v = rng.NextFloat(-1.0f, 1.0f);
    }
    std::vector<std::uint64_t> indices(kQueries * kLookups);
    for (auto& idx : indices) idx = rng.NextBounded(kRows);
    std::vector<float> out_scalar(kDim), out_avx2(kDim);
    const PackedTableView view = table.view();
    const std::span<const std::uint64_t> all_indices(indices);

    const double bytes = static_cast<double>(kQueries) *
                         static_cast<double>(GatherBytes(kLookups, kDim));
    const auto run = [&](auto kernel, std::vector<float>& out) {
      return bench::TimeMedian(kReps, [&] {
        for (std::size_t q = 0; q < kQueries; ++q) {
          kernel(view, all_indices.subspan(q * kLookups, kLookups),
                 std::span<float>(out));
        }
      });
    };
    const Nanoseconds scalar_ns = run(GatherSumPoolScalar, out_scalar);
    KernelRow row{"gather_pool_80x64", bytes / scalar_ns, 0.0, "GB/s", true};
    if (avx2) {
      const Nanoseconds avx2_ns = run(GatherSumPoolAvx2, out_avx2);
      row.avx2_rate = bytes / avx2_ns;
      // Contract: pure adds in lookup order -> bit-exact equality (both
      // buffers hold the final query's pooled result here).
      row.exact = BitExact(out_scalar, out_avx2);
    }
    rows.push_back(row);
  }

  // Single-lookup gather (the memcpy path) with a dim that is not a
  // multiple of 8, exercising the masked tail.
  {
    constexpr std::uint64_t kRows = 1ull << 16;
    constexpr std::uint32_t kDim = 48;
    constexpr std::size_t kQueries = 4096;
    PackedRowBuffer table(kRows, kDim);
    for (std::uint64_t r = 0; r < kRows; ++r) {
      for (float& v : table.row(r)) v = rng.NextFloat(-1.0f, 1.0f);
    }
    std::vector<std::uint64_t> indices(kQueries);
    for (auto& idx : indices) idx = rng.NextBounded(kRows);
    std::vector<float> out_scalar(kDim), out_avx2(kDim);
    const PackedTableView view = table.view();
    const double bytes = static_cast<double>(kQueries) *
                         static_cast<double>(GatherBytes(1, kDim));
    const auto run = [&](auto kernel, std::vector<float>& out) {
      return bench::TimeMedian(kReps, [&] {
        for (std::size_t q = 0; q < kQueries; ++q) {
          kernel(view, std::span<const std::uint64_t>(&indices[q], 1),
                 std::span<float>(out));
        }
      });
    };
    const Nanoseconds scalar_ns = run(GatherSumPoolScalar, out_scalar);
    KernelRow row{"gather_copy_1x48", bytes / scalar_ns, 0.0, "GB/s", true};
    if (avx2) {
      const Nanoseconds avx2_ns = run(GatherSumPoolAvx2, out_avx2);
      row.avx2_rate = bytes / avx2_ns;
      row.exact = BitExact(out_scalar, out_avx2);
    }
    rows.push_back(row);
  }

  // -------------------------------------------------------- GEMM (GOP/s)
  // The production FC-stage shape: [m x 352] * [352 x 1024] with the fused
  // bias+ReLU epilogue on both variants (blocked vs register-tiled AVX2).
  for (const std::size_t m :
       {std::size_t{1}, std::size_t{64}, std::size_t{256}}) {
    constexpr std::size_t kK = 352, kN = 1024;
    MatrixF a(m, kK), b(kK, kN), c_blocked, c_avx2;
    std::vector<float> bias(kN);
    for (float& v : a.flat()) v = rng.NextFloat(-1.0f, 1.0f);
    for (float& v : b.flat()) v = rng.NextFloat(-1.0f, 1.0f);
    for (float& v : bias) v = rng.NextFloat(-0.5f, 0.5f);
    const GemmEpilogue ep{.bias = bias, .relu = true};
    const double ops = static_cast<double>(GemmOps(m, kK, kN));

    const Nanoseconds blocked_ns =
        bench::TimeMedian(kReps, [&] { GemmBlockedEx(a, b, c_blocked, ep); });
    KernelRow row{"gemm_fused_" + std::to_string(m) + "x352x1024",
                  ops / blocked_ns, 0.0, "GOP/s", true};
    if (avx2) {
      // Packed once outside the timed region, as MlpModel does at build.
      const PanelMatrix packed(b);
      const Nanoseconds avx2_ns = bench::TimeMedian(
          kReps, [&] { GemmAvx2Ex(a, packed, c_avx2, ep); });
      row.avx2_rate = ops / avx2_ns;
      row.exact = AllNearAbs(c_blocked.flat(), c_avx2.flat(),
                             1e-4f * static_cast<float>(kK));
    }
    rows.push_back(row);
  }

  // -------------------------------------------------------- GEMV (GOP/s)
  {
    constexpr std::size_t kK = 352, kN = 1024;
    MatrixF b(kK, kN);
    std::vector<float> x(kK), y_scalar(kN), y_avx2(kN), bias(kN);
    for (float& v : b.flat()) v = rng.NextFloat(-1.0f, 1.0f);
    for (float& v : x) v = rng.NextFloat(-1.0f, 1.0f);
    for (float& v : bias) v = rng.NextFloat(-0.5f, 0.5f);
    const GemmEpilogue ep{.bias = bias, .relu = true};
    const double ops = static_cast<double>(GemmOps(1, kK, kN));
    const Nanoseconds scalar_ns =
        bench::TimeMedian(kReps, [&] { GemvEx(x, b, y_scalar, ep); });
    KernelRow row{"gemv_fused_352x1024", ops / scalar_ns, 0.0, "GOP/s", true};
    if (avx2) {
      const PanelMatrix packed(b);
      const Nanoseconds avx2_ns = bench::TimeMedian(
          kReps, [&] { GemvAvx2Ex(x, packed, y_avx2, ep); });
      row.avx2_rate = ops / avx2_ns;
      row.exact = AllNearAbs(y_scalar, y_avx2, 1e-4f * static_cast<float>(kK));
    }
    rows.push_back(row);
  }

  // -------------------------------------- CpuEngine end-to-end (queries/s)
  // Pooled embedding-heavy model (the wall-clock gate's workload shape):
  // optimized scratch path vs the frozen pre-optimization reference. Here
  // "scalar" is the reference path and "avx2" the optimized one.
  {
    const RecModelSpec model = PooledCpuGateModel();
    CpuEngine engine(model, /*max_physical_rows=*/1ull << 16);
    QueryGenerator gen(model, IndexDistribution::kUniform, 7);
    InferenceScratch scratch;
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{64}, std::size_t{256}}) {
      const auto queries = gen.NextBatch(batch);
      engine.ReserveScratch(scratch, batch);
      const Nanoseconds ref_ns = bench::TimeMedian(
          kReps, [&] { engine.InferBatchReference(queries); });
      std::span<const float> probs;
      const Nanoseconds opt_ns = bench::TimeMedian(
          kReps, [&] { probs = engine.InferBatch(queries, scratch); });
      const auto ref = engine.InferBatchReference(queries);
      rows.push_back(KernelRow{
          "cpu_engine_batch" + std::to_string(batch),
          static_cast<double>(batch) / (ref_ns / 1e9),
          static_cast<double>(batch) / (opt_ns / 1e9), "q/s",
          AllWithinUlps(ref, probs)});
    }
  }

  // ---------------------------------------------------------------- report
  TablePrinter table(
      {"Kernel", "Scalar/ref", "AVX2/opt", "Unit", "Speedup", "Exact"});
  bench::JsonReport json("kernels");
  json.MarkVolatile({"scalar_rate", "avx2_rate", "speedup", "prof_*"});
  json.Meta("avx2_supported", avx2);
  bool all_exact = true;
  for (const KernelRow& row : rows) {
    const double speedup =
        row.scalar_rate > 0.0 ? row.avx2_rate / row.scalar_rate : 0.0;
    all_exact = all_exact && row.exact;
    table.AddRow({row.kernel, TablePrinter::Num(row.scalar_rate, 2),
                  TablePrinter::Num(row.avx2_rate, 2), row.unit,
                  TablePrinter::Num(speedup, 2) + "x",
                  row.exact ? "yes" : "NO"});
    json.AddRecord({{"kernel", row.kernel},
                    {"unit", row.unit},
                    {"scalar_rate", row.scalar_rate},
                    {"avx2_rate", row.avx2_rate},
                    {"speedup", speedup},
                    {"exact", row.exact}});
  }
  table.Print();
  json.Meta("all_exact", all_exact);

  // -------------------------------- hardware phase attribution (obs/prof/)
  // Perf-counter profile of the optimized engine at batch 256: where do
  // the cycles go per phase, and does each phase land on the side of the
  // roofline its kernel was designed for? The two classification bools
  // are hard-gated; every prof_* number is volatile.
  bench::PrintHeader(
      "Hardware phase attribution: counters + roofline at batch 256",
      "observability extension (hardware profiling layer, DESIGN.md s17)");
  const auto prof_section = bench::RunProfSection(
      json, PooledCpuGateModel(), /*batch=*/256, /*batches=*/24, /*seed=*/7);
  json.WriteFile();

  if (!all_exact) {
    std::printf("FAIL: an AVX2 kernel diverged from its reference beyond "
                "the documented contract\n");
    return 1;
  }
  if (!prof_section.gather_memory_bound || !prof_section.gemm_compute_bound) {
    std::printf("FAIL: roofline classification inverted (gather %s, gemm "
                "%s); expected gather memory-bound and batched GEMM "
                "compute-bound on every host\n",
                prof_section.gather_memory_bound ? "memory-bound"
                                                 : "NOT memory-bound",
                prof_section.gemm_compute_bound ? "compute-bound"
                                                : "NOT compute-bound");
    return 1;
  }
  if (avx2) {
    bench::PrintNote("every AVX2 kernel matched its reference within "
                     "contract (gather bit-exact, FMA kernels <= 1e-4*K, "
                     "engine output <= 4 ULP)");
  } else {
    bench::PrintNote("host lacks AVX2: scalar rates only; speedups and "
                     "exactness checks not applicable");
  }
  return 0;
}
