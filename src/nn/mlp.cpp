#include "nn/mlp.hpp"

#include <cmath>

#include "obs/prof/profiler.hpp"
#include "tensor/activations.hpp"

namespace microrec {

namespace {

/// Declared data volume of one [m x k] * [k x n] fused-GEMM layer: every
/// operand touched at least once (activations in, weights, activations
/// out). The intensity denominator the roofline classifies -- cache reuse
/// above this floor only pushes the phase further compute-bound.
double GemmLayerBytes(std::size_t m, std::size_t k, std::size_t n) {
  return 4.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n +
                static_cast<double>(m) * n);
}

}  // namespace

std::uint64_t MlpSpec::OpsPerItem() const {
  std::uint64_t ops = 0;
  for (std::size_t i = 0; i < hidden.size(); ++i) ops += 2 * LayerMacs(i);
  return ops;
}

std::uint32_t MlpSpec::LayerInputDim(std::size_t i) const {
  MICROREC_CHECK(i < hidden.size());
  return i == 0 ? input_dim : hidden[i - 1];
}

std::uint64_t MlpSpec::LayerMacs(std::size_t i) const {
  return static_cast<std::uint64_t>(LayerInputDim(i)) * hidden[i];
}

Status MlpSpec::Validate() const {
  if (input_dim == 0) return Status::InvalidArgument("MLP input_dim == 0");
  if (hidden.empty()) return Status::InvalidArgument("MLP has no hidden layers");
  for (auto h : hidden) {
    if (h == 0) return Status::InvalidArgument("MLP hidden layer width == 0");
  }
  return Status::Ok();
}

MlpModel MlpModel::Create(const MlpSpec& spec, std::uint64_t seed) {
  MICROREC_CHECK(spec.Validate().ok());
  MlpModel model;
  model.spec_ = spec;
  Rng rng(seed);
  for (std::size_t i = 0; i < spec.hidden.size(); ++i) {
    const std::uint32_t in = spec.LayerInputDim(i);
    const std::uint32_t out = spec.hidden[i];
    // He-style scaling keeps pre-activations well inside the fixed-point
    // dynamic range for the quantized datapath.
    const float scale = 1.0f / std::sqrt(static_cast<float>(in));
    MatrixF w(in, out);
    for (float& v : w.flat()) {
      v = static_cast<float>(rng.NextGaussian()) * scale;
    }
    std::vector<float> b(out);
    for (float& v : b) v = static_cast<float>(rng.NextGaussian()) * 0.01f;
    if (CpuSupportsAvx2()) model.panels_.emplace_back(w);
    model.weights_.push_back(std::move(w));
    model.biases_.push_back(std::move(b));
  }
  const std::uint32_t last = spec.hidden.back();
  model.head_weights_.Resize(last, 1);
  const float head_scale = 1.0f / std::sqrt(static_cast<float>(last));
  for (float& v : model.head_weights_.flat()) {
    v = static_cast<float>(rng.NextGaussian()) * head_scale;
  }
  model.head_bias_ = static_cast<float>(rng.NextGaussian()) * 0.01f;
  return model;
}

float MlpModel::HeadLogit(std::span<const float> activ) const {
  float logit = head_bias_;
  for (std::size_t j = 0; j < activ.size(); ++j) {
    logit += activ[j] * head_weights_(j, 0);
  }
  return logit;
}

float MlpModel::ForwardOne(std::span<const float> input, MlpScratch& scratch,
                           obs::prof::HwProfiler* prof) const {
  MICROREC_CHECK(input.size() == spec_.input_dim);
  MatrixF* bufs[2] = {&scratch.a, &scratch.b};
  std::span<const float> activ = input;
  {
    obs::prof::ProfScope scope(prof, "gemm");
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      MatrixF& next = *bufs[i % 2];
      next.ResizeUninit(1, spec_.hidden[i]);
      const GemmEpilogue ep{.bias = biases_[i], .relu = true};
      if (panels_.empty()) {
        GemvEx(activ, weights_[i], next.row(0), ep);
      } else {
        GemvAvx2Ex(activ, panels_[i], next.row(0), ep);
      }
      activ = next.row(0);
    }
  }
  float prob = 0.0f;
  {
    obs::prof::ProfScope scope(prof, "head_sigmoid");
    prob = Sigmoid(HeadLogit(activ));
  }
  if (prof != nullptr) AddForwardWork(*prof, /*batch=*/1);
  return prob;
}

float MlpModel::Forward(std::span<const float> input) const {
  MlpScratch scratch;
  return ForwardOne(input, scratch);
}

void MlpModel::AddForwardWork(obs::prof::HwProfiler& prof,
                              std::size_t batch) const {
  double gemm_bytes = 0.0;
  double gemm_flops = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    gemm_bytes += GemmLayerBytes(batch, spec_.LayerInputDim(i),
                                 spec_.hidden[i]);
    gemm_flops += 2.0 * static_cast<double>(batch) *
                  static_cast<double>(spec_.LayerMacs(i));
  }
  prof.AddPhaseWork("gemm", gemm_bytes, gemm_flops);
  const double last = static_cast<double>(spec_.hidden.back());
  // Head: one dot product over the last activation row + sigmoid per item;
  // bytes are the activation row and the head weight column.
  prof.AddPhaseWork("head_sigmoid",
                    static_cast<double>(batch) * 2.0 * last * 4.0,
                    static_cast<double>(batch) * (2.0 * last + 4.0));
}

void MlpModel::ForwardBatch(const MatrixF& inputs, MlpScratch& scratch,
                            std::span<float> probs,
                            obs::prof::HwProfiler* prof) const {
  MICROREC_CHECK(inputs.cols() == spec_.input_dim);
  MICROREC_CHECK(probs.size() == inputs.rows());
  // Ping-pong between the two persistent buffers: layer i writes one while
  // reading the other (layer 0 reads `inputs`), so no layer allocates once
  // the buffers have grown to the spec's widths. Bias + ReLU are fused
  // into the GEMM's register write-back instead of a second sweep (which
  // is why there is no separate "activation" profiling phase: activation
  // cost is inside "gemm" by construction).
  MatrixF* bufs[2] = {&scratch.a, &scratch.b};
  const MatrixF* activ = &inputs;
  {
    obs::prof::ProfScope scope(prof, "gemm");
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      MatrixF& next = *bufs[i % 2];
      const GemmEpilogue ep{.bias = biases_[i], .relu = true};
      if (panels_.empty()) {
        GemmBlockedEx(*activ, weights_[i], next, ep);
      } else {
        GemmAvx2Ex(*activ, panels_[i], next, ep);
      }
      activ = &next;
    }
  }
  {
    obs::prof::ProfScope scope(prof, "head_sigmoid");
    for (std::size_t r = 0; r < activ->rows(); ++r) {
      probs[r] = Sigmoid(HeadLogit(activ->row(r)));
    }
  }
  if (prof != nullptr) AddForwardWork(*prof, inputs.rows());
}

std::vector<float> MlpModel::ForwardBatch(const MatrixF& inputs) const {
  MlpScratch scratch;
  std::vector<float> out(inputs.rows());
  ForwardBatch(inputs, scratch, out);
  return out;
}

}  // namespace microrec
