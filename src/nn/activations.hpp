// The ReLU layer and the scalar gate nonlinearities of the LSTM cell.
#pragma once

#include "nn/layer.hpp"
#include "tensor/lanes.hpp"

namespace specdag::nn {

// One element of the LSTM's gate nonlinearities: the scalar references of
// lanes::sigmoid and lanes::tanh, which the layer runs a row at a time.
// sigmoidf(x) is 1.0f / (1.0f + expf(-x)) and tanhf_ is tanhf, with expf
// and tanhf the in-tree ports of glibc 2.36's (lanes.hpp), not the host
// libm's.
inline float sigmoidf(float x) { return lanes::sigmoid_ref(x); }
inline float tanhf_(float x) { return lanes::tanh_ref(x); }

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer(const float* weights, const Tensor& input, Tensor& out) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

}  // namespace specdag::nn
