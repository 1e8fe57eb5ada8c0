// Elementwise activation layers and the scalar nonlinearities shared with the
// LSTM cell.
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

class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor cached_output_;
};

class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  Tensor cached_output_;
};

}  // namespace specdag::nn
