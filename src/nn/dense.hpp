// Fully connected layer: y = xW + b, input [batch, in], output [batch, out].
#pragma once

#include "nn/layer.hpp"

namespace specdag::nn {

class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  void infer(const float* weights, const Tensor& input, Tensor& out) override;
  std::vector<Param> params() override;
  void init_params(Rng& rng) override;
  std::string name() const override { return "Dense"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  void check_input(const Tensor& input) const;

  std::size_t in_;
  std::size_t out_;
  Tensor weight_;       // [in, out]
  Tensor bias_;         // [out]
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;
  std::vector<float> grad_w_scratch_;  // reused across backward calls
};

}  // namespace specdag::nn
