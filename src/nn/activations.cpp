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

Tensor Tanh::forward(const Tensor& input, bool train) {
  Tensor out = input;
  for (auto& v : out.data()) v = tanhf_(v);
  if (train) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (!cached_output_.same_shape(grad_output)) {
    throw std::logic_error("Tanh::backward: shape mismatch with cached output");
  }
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    const float y = cached_output_[i];
    grad[i] *= 1.0f - y * y;
  }
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input, bool train) {
  Tensor out = input;
  for (auto& v : out.data()) v = sigmoidf(v);
  if (train) cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  if (!cached_output_.same_shape(grad_output)) {
    throw std::logic_error("Sigmoid::backward: shape mismatch with cached output");
  }
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    const float y = cached_output_[i];
    grad[i] *= y * (1.0f - y);
  }
  return grad;
}

}  // namespace specdag::nn
