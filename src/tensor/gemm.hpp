// GEMM / GEMV kernels for the CPU baseline and for reference computation.
//
// Three float GEMM implementations share one contract: a straightforward
// reference kernel (ground truth for tests), a cache-blocked scalar kernel
// (the non-AVX2 fallback), and a register-tiled AVX2+FMA kernel. The AVX2
// kernel reads B pre-packed into 16-column panels (PanelMatrix): each panel
// is k contiguous 64-byte lines, one per step of the k loop, so the kernel
// streams B in the order it consumes it. One microkernel serves both the
// batched GEMM and the batch-1 GEMV (a 1-row GEMM). Each kernel also has an
// `Ex` variant with a fused epilogue: bias add + ReLU applied at C's
// write-back while the tile is still in registers/cache, instead of a
// second sweep over the output (the MLP layer structure, nn/mlp.hpp).
// Correctness of blocked/AVX2 vs. reference, and fused vs. unfused +
// separate epilogue, is covered by property tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/matrix.hpp"

namespace microrec {

/// Optional fused output transform: when `bias` is non-empty it must have
/// one entry per output column and is added to every row; `relu` then
/// clamps negatives. Applied after the full k accumulation, so a fused
/// kernel is numerically identical to the unfused kernel plus a separate
/// bias/ReLU sweep.
struct GemmEpilogue {
  std::span<const float> bias = {};
  bool relu = false;

  bool empty() const { return bias.empty() && !relu; }
};

/// C(m,n) = A(m,k) * B(k,n). Reference triple loop, no blocking.
void GemmReference(const MatrixF& a, const MatrixF& b, MatrixF& c);

/// Cache-blocked GEMM with k-innermost accumulation; same contract as
/// GemmReference.
void GemmBlocked(const MatrixF& a, const MatrixF& b, MatrixF& c);
void GemmBlockedEx(const MatrixF& a, const MatrixF& b, MatrixF& c,
                   const GemmEpilogue& epilogue);

/// B(k,n) repacked for the AVX2 kernel: ceil(n/16) contiguous panels, panel
/// q holding columns [16q, 16q + 16) as k rows of 16 floats (one 64-byte
/// aligned cache line per row), with columns past n zero. Read-only once
/// built; the row-major matrix it was packed from stays the canonical copy.
class PanelMatrix {
 public:
  static constexpr std::size_t kWidth = 16;

  explicit PanelMatrix(const MatrixF& b);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t panels() const { return (cols_ + kWidth - 1) / kWidth; }
  const float* panel(std::size_t q) const {
    return data_.data() + q * rows_ * kWidth;
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  MatrixF data_;  // [panels * rows x kWidth]
};

/// Register-tiled AVX2+FMA GEMM over pre-packed B; same contract as
/// GemmReference plus the fused epilogue. Only call when CpuSupportsAvx2().
void GemmAvx2Ex(const MatrixF& a, const PanelMatrix& b, MatrixF& c,
                const GemmEpilogue& epilogue);

/// True iff this host can run the AVX2 kernels.
bool CpuSupportsAvx2();

/// Packs B and runs GemmAvx2Ex when the host supports it, GemmBlocked
/// otherwise -- the CPU baseline's GEMM (the paper's baseline is AVX2
/// FMA-enabled). Hot paths pack once and call GemmAvx2Ex directly.
void GemmAuto(const MatrixF& a, const MatrixF& b, MatrixF& c);
void GemmAutoEx(const MatrixF& a, const MatrixF& b, MatrixF& c,
                const GemmEpilogue& epilogue);

/// y(n) = x(k) * B(k,n) for a single row vector x; used at batch size 1.
/// Scalar reference implementation.
void Gemv(std::span<const float> x, const MatrixF& b, std::span<float> y);
void GemvEx(std::span<const float> x, const MatrixF& b, std::span<float> y,
            const GemmEpilogue& epilogue);

/// AVX2+FMA GEMV over pre-packed B: the 1-row case of GemmAvx2Ex's
/// microkernel, so bit-identical to a 1-row GemmAvx2Ex. Only call when
/// CpuSupportsAvx2().
void GemvAvx2Ex(std::span<const float> x, const PanelMatrix& b,
                std::span<float> y, const GemmEpilogue& epilogue);

/// Number of floating-point operations for an (m,k)x(k,n) GEMM counting one
/// multiply + one add per MAC, matching the paper's GOP/s accounting.
constexpr std::size_t GemmOps(std::size_t m, std::size_t k, std::size_t n) {
  return 2 * m * k * n;
}

/// FMA-peak probe kernels for the roofline layer (obs/prof/roofline.hpp):
/// `iters` rounds over 16 independent accumulator chains (8 lanes each on
/// AVX2), enough ILP to saturate both FMA ports. Returns a value-dependent
/// checksum so the loop cannot be dead-code-eliminated; flops executed are
/// FmaProbeFlops(iters, avx2). The AVX2 variant requires CpuSupportsAvx2().
float FmaProbeKernelScalar(std::size_t iters);
float FmaProbeKernelAvx2(std::size_t iters);

constexpr std::uint64_t FmaProbeFlops(std::size_t iters, bool avx2) {
  return 2ull * 16ull * (avx2 ? 8ull : 1ull) * iters;
}

}  // namespace microrec
