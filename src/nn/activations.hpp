// The ReLU layer and the scalar gate nonlinearities of the LSTM cell.
#pragma once

#include <cmath>

#include "nn/layer.hpp"

namespace specdag::nn {

inline float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }
inline float tanhf_(float x) { return std::tanh(x); }

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
