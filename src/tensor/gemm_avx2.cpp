// AVX2+FMA GEMM/GEMV kernels (compiled with -mavx2 -mfma for this file
// only; callers reach them through CpuSupportsAvx2() dispatch). The
// paper's CPU baseline is "AVX2 FMA supported", so the measured baseline
// vectorizes too.
//
// One microkernel, Tile16<MR>, computes an MR-row x 16-column tile of C
// (MR = 1..6, two ymm accumulators per row) over one 16-column panel of B
// (PanelMatrix): it keeps the tile live across the entire k dimension and
// writes each C element exactly once, with the bias+ReLU epilogue applied
// in registers at write-back. Compared to a k-blocked kernel that streams
// C through memory on every k-block, this trades 2 loads + 1 store per FMA
// for 8 loads per 12 FMAs, moving the kernel from load-port-bound to
// FMA-bound. The row-block loop is outermost: an MR x k block of A (at
// most 24 KiB at k = 1024) stays L1-resident while every panel streams
// past it, each panel one sequential run of k cache lines. The batch-1
// GEMV is the same kernel at MR = 1.
//
// Why panels: on row-major B, a 16-column strip is read with a stride of
// n*4 bytes (4 KiB at n = 1024), so all k lines of the strip land in one
// to four of L1D's 64 sets and cross a 4-KiB page every row or two. The
// batched GEMM hides that behind MR rows of reuse per load; the GEMV has
// no reuse and was bound by it. Packed, each panel is a contiguous stream
// the hardware prefetcher follows.
//
// Accumulation order per element is p-ascending with a single FMA
// accumulator, whatever the tile's row count or the panel's width, so
// results are independent of m/n remainders and bit-identical to a
// p-ascending std::fma loop; vs. the scalar kernels the only difference is
// FMA's single rounding (the bound property-tested in tensor_test).
#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "tensor/gemm.hpp"

namespace microrec {

namespace {

/// Mask with the low `lanes` lanes enabled (lanes in [0, 8]).
inline __m256i LaneMask(std::size_t lanes) {
  static const std::int32_t kBits[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                         0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBits + 8 - lanes));
}

struct EpilogueCtx {
  const float* bias = nullptr;  // full-width, indexed by absolute column
  bool relu = false;
};

/// Applies the epilogue to `v`, holding columns [j, j + lanes) of a C row,
/// and stores those lanes to `c` (lanes in [0, 8]).
inline void StoreCols(float* c, __m256 v, const EpilogueCtx& ep,
                      std::size_t j, std::size_t lanes) {
  if (lanes == 8) {
    if (ep.bias != nullptr) {
      v = _mm256_add_ps(v, _mm256_loadu_ps(ep.bias + j));
    }
    if (ep.relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
    _mm256_storeu_ps(c, v);
  } else if (lanes > 0) {
    const __m256i mask = LaneMask(lanes);
    if (ep.bias != nullptr) {
      v = _mm256_add_ps(v, _mm256_maskload_ps(ep.bias + j, mask));
    }
    if (ep.relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
    _mm256_maskstore_ps(c, mask, v);
  }
}

/// MR x 16 microkernel over one panel: full-k accumulation in registers,
/// then columns [j, j + lanes) of C's MR rows written once (lanes in
/// [1, 16]; only the last panel is narrower than 16).
template <int MR>
inline void Tile16(const float* a, std::size_t lda, const float* panel,
                   std::size_t k, float* c, std::size_t ldc, std::size_t j,
                   std::size_t lanes, const EpilogueCtx& ep) {
  __m256 acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  const float* bp = panel;
  for (std::size_t p = 0; p < k; ++p, bp += PanelMatrix::kWidth) {
    const __m256 b0 = _mm256_load_ps(bp);
    const __m256 b1 = _mm256_load_ps(bp + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  const std::size_t lo = std::min<std::size_t>(lanes, 8);
  for (int r = 0; r < MR; ++r) {
    float* crow = c + r * ldc + j;
    StoreCols(crow, acc0[r], ep, j, lo);
    StoreCols(crow + 8, acc1[r], ep, j + 8, lanes - lo);
  }
}

/// C rows [0, m) in blocks of MR rows over every panel of B; the last
/// m % MR rows go to the next-smaller instantiation.
template <int MR>
void PanelGemm(const float* a, std::size_t lda, std::size_t m,
               const PanelMatrix& b, float* c, std::size_t ldc,
               const EpilogueCtx& ep) {
  const std::size_t k = b.rows(), n = b.cols();
  std::size_t i = 0;
  for (; i + MR <= m; i += MR) {
    for (std::size_t q = 0; q < b.panels(); ++q) {
      const std::size_t j = q * PanelMatrix::kWidth;
      Tile16<MR>(a + i * lda, lda, b.panel(q), k, c + i * ldc, ldc, j,
                 std::min(PanelMatrix::kWidth, n - j), ep);
    }
  }
  if constexpr (MR > 1) {
    if (i < m) {
      PanelGemm<MR - 1>(a + i * lda, lda, m - i, b, c + i * ldc, ldc, ep);
    }
  }
}

EpilogueCtx MakeEpilogueCtx(const GemmEpilogue& epilogue, std::size_t n) {
  MICROREC_CHECK(epilogue.bias.empty() || epilogue.bias.size() == n);
  return {epilogue.bias.empty() ? nullptr : epilogue.bias.data(),
          epilogue.relu};
}

}  // namespace

void GemmAvx2Ex(const MatrixF& a, const PanelMatrix& b, MatrixF& c,
                const GemmEpilogue& epilogue) {
  MICROREC_CHECK(a.cols() == b.rows());
  const EpilogueCtx ep = MakeEpilogueCtx(epilogue, b.cols());
  c.ResizeUninit(a.rows(), b.cols());  // every element written exactly once
  PanelGemm<6>(a.data(), a.cols(), a.rows(), b, c.data(), b.cols(), ep);
}

void GemvAvx2Ex(std::span<const float> x, const PanelMatrix& b,
                std::span<float> y, const GemmEpilogue& epilogue) {
  MICROREC_CHECK(x.size() == b.rows());
  MICROREC_CHECK(y.size() == b.cols());
  PanelGemm<1>(x.data(), 0, 1, b, y.data(), 0,
               MakeEpilogueCtx(epilogue, b.cols()));
}

float FmaProbeKernelAvx2(std::size_t iters) {
  // 16 independent 8-lane FMA chains: at 2 FMA ports x ~4-cycle latency,
  // 16 in-flight chains keep both ports saturated.
  __m256 acc[16];
  for (std::size_t i = 0; i < 16; ++i) {
    acc[i] = _mm256_set1_ps(0.5f + 0.01f * static_cast<float>(i));
  }
  const __m256 m = _mm256_set1_ps(0.999f);
  const __m256 a = _mm256_set1_ps(1e-3f);
  for (std::size_t it = 0; it < iters; ++it) {
    for (std::size_t i = 0; i < 16; ++i) {
      acc[i] = _mm256_fmadd_ps(acc[i], m, a);
    }
  }
  __m256 sum = _mm256_setzero_ps();
  for (std::size_t i = 0; i < 16; ++i) sum = _mm256_add_ps(sum, acc[i]);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, sum);
  float total = 0.0f;
  for (const float v : lanes) total += v;
  return total;
}

}  // namespace microrec
