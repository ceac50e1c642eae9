// The CTR-prediction MLP ("top fully-connected layers", paper figure 1).
//
// MlpSpec describes the architecture; MlpModel holds float weights and is
// the numerical ground truth used by the CPU baseline and by tests. The
// paper's models take the concatenated embedding vector straight into three
// hidden FC layers (1024, 512, 256) -- no bottom FCs -- followed by a
// 1-unit sigmoid click-probability head.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"

namespace microrec {

namespace obs::prof {
class HwProfiler;
}  // namespace obs::prof

struct MlpSpec {
  std::uint32_t input_dim = 0;
  std::vector<std::uint32_t> hidden = {1024, 512, 256};

  /// Ops per inference counted the paper's way: 2 * MACs over the hidden
  /// FC layers (the 1-unit head is negligible and excluded, matching the
  /// GOP/s figures in Table 2 -- see DESIGN.md section 5).
  std::uint64_t OpsPerItem() const;

  /// MACs of hidden layer `i` (in_dim(i) * hidden[i]).
  std::uint64_t LayerMacs(std::size_t i) const;
  std::uint32_t LayerInputDim(std::size_t i) const;

  Status Validate() const;
};

/// Reusable activation buffers for the forward pass: two ping-pong
/// matrices that layer i writes alternately (layer i reads the other).
/// Matrix storage is capacity-reusing, so after the first call at a given
/// batch size every subsequent forward performs zero heap allocations.
struct MlpScratch {
  MatrixF a, b;
};

/// Float MLP with deterministic He-style initialisation.
class MlpModel {
 public:
  static MlpModel Create(const MlpSpec& spec, std::uint64_t seed);

  const MlpSpec& spec() const { return spec_; }

  /// Weight matrix of hidden layer i, shape [in_dim x out_dim]: the
  /// canonical row-major copy (reference path, calibration, quantisation,
  /// the non-AVX2 fallback).
  const MatrixF& weights(std::size_t i) const { return weights_[i]; }
  std::span<const float> biases(std::size_t i) const { return biases_[i]; }
  /// Head weights, shape [last_hidden x 1], and scalar head bias.
  const MatrixF& head_weights() const { return head_weights_; }
  float head_bias() const { return head_bias_; }

  /// Single-item forward pass: input length spec().input_dim, returns the
  /// click probability (sigmoid output). Allocation-free wrapper state is
  /// available via ForwardOne.
  float Forward(std::span<const float> input) const;

  /// Single-item forward through caller-held scratch (the batch-1 latency
  /// path): vectorized GEMV with fused bias+ReLU, zero allocations in
  /// steady state. Bit-identical to Forward and to the matching row of
  /// ForwardBatch (both take one p-ascending accumulator per output).
  /// `prof`, when non-null, attributes the FC layers to the "gemm" phase
  /// and the head dot + sigmoid to "head_sigmoid" (hardware counters +
  /// declared work); it never changes the computation.
  float ForwardOne(std::span<const float> input, MlpScratch& scratch,
                   obs::prof::HwProfiler* prof = nullptr) const;

  /// Batched forward pass: `inputs` is [batch x input_dim]; returns one
  /// probability per row. Uses the dispatched GEMM kernel (this is the
  /// path the CPU baseline measures).
  std::vector<float> ForwardBatch(const MatrixF& inputs) const;

  /// Batched forward through caller-held scratch: fused-epilogue GEMM into
  /// ping-pong buffers, probabilities written to `probs` (one per input
  /// row), zero heap allocations in steady state. `prof` as in ForwardOne
  /// (nullptr: a single branch, bit-identical outputs either way).
  void ForwardBatch(const MatrixF& inputs, MlpScratch& scratch,
                    std::span<float> probs,
                    obs::prof::HwProfiler* prof = nullptr) const;

 private:
  /// Head logit for one activation row (shared by every forward variant so
  /// batch-1, batched, and reference paths are bit-consistent).
  float HeadLogit(std::span<const float> activ) const;

  /// Declares the gemm/head phases' data volume and op counts for one
  /// forward of `batch` items into `prof` (roofline denominators).
  void AddForwardWork(obs::prof::HwProfiler& prof, std::size_t batch) const;

  MlpSpec spec_;
  std::vector<MatrixF> weights_;           // [in x out] per hidden layer
  // weights_ packed for the AVX2 kernels, built once in Create; empty on a
  // host without AVX2, where the forward passes take the scalar kernels.
  std::vector<PanelMatrix> panels_;
  std::vector<std::vector<float>> biases_; // per hidden layer
  MatrixF head_weights_;                   // [last_hidden x 1]
  float head_bias_ = 0.0f;
};

}  // namespace microrec
