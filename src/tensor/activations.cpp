#include "tensor/activations.hpp"

namespace microrec {

void ReluInPlace(std::span<float> values) {
  for (float& v : values) v = Relu(v);
}

}  // namespace microrec
