// Activation functions used by the CTR MLP: ReLU on hidden layers,
// sigmoid on the final click-probability output.
#pragma once

#include <cmath>
#include <span>

namespace microrec {

inline float Relu(float x) { return x > 0.0f ? x : 0.0f; }

inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void ReluInPlace(std::span<float> values);

}  // namespace microrec
