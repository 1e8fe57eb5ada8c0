// Convolutional building blocks for the paper's CNN models: Conv2D with
// square kernels (+ optional same-padding), MaxPool2D, and Flatten to bridge
// into dense layers.
#pragma once

#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace specdag::nn {

class Conv2D : public Layer {
 public:
  // `padding` defaults to (kernel-1)/2 rounded down when `same_padding` is
  // true, matching the TF "same" behaviour for odd kernels as used in LEAF.
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride = 1, bool same_padding = true);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  void init_params(Rng& rng) override;
  std::string name() const override { return "Conv2D"; }

  const Conv2dSpec& spec() const { return spec_; }

 private:
  Conv2dSpec spec_;
  Tensor filters_;       // [OC, C*K*K]
  Tensor bias_;          // [OC]
  Tensor grad_filters_;
  Tensor grad_bias_;
  Tensor cached_cols_;   // im2col of the last training input
  Shape cached_input_shape_;
  // Scratch reused across forward/backward calls (capacity is retained, so
  // the per-batch im2col/GEMM temporaries stop allocating after warm-up).
  std::vector<float> out_cols_scratch_;
  std::vector<float> eval_cols_scratch_;
  std::vector<float> grad_cols_scratch_;
  std::vector<float> grad_f_scratch_;
  std::vector<float> dcols_scratch_;
};

class MaxPool2D : public Layer {
 public:
  MaxPool2D(std::size_t size, std::size_t stride);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2D"; }

  std::size_t size() const { return size_; }
  std::size_t stride() const { return stride_; }

 private:
  std::size_t size_;
  std::size_t stride_;
  Shape cached_input_shape_;
  std::vector<std::size_t> cached_argmax_;
};

// [N, C, H, W] -> [N, C*H*W].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer(const float* weights, const Tensor& input, Tensor& out) override;
  std::string name() const override { return "Flatten"; }

 private:
  Shape cached_input_shape_;
};

}  // namespace specdag::nn
