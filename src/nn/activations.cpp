#include "nn/activations.hpp"

#include "tensor/lanes.hpp"

namespace specdag::nn {

Tensor ReLU::forward(const Tensor& input, bool train) {
  if (train) cached_input_ = input;
  Tensor out = input;
  lanes::relu_forward(input.raw(), out.raw(), out.numel());
  return out;
}

void ReLU::infer(const float* /*weights*/, const Tensor& input, Tensor& out) {
  out.resize(input.shape());
  lanes::relu_forward(input.raw(), out.raw(), out.numel());
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (!cached_input_.same_shape(grad_output)) {
    throw std::logic_error("ReLU::backward: shape mismatch with cached input");
  }
  Tensor grad = grad_output;
  lanes::relu_backward_mask(cached_input_.raw(), grad.raw(), grad.numel());
  return grad;
}

}  // namespace specdag::nn
