// Single-layer LSTM with full backpropagation through time.
//
// Input  [batch, seq, in_dim]; output is the hidden state at the last
// timestep, [batch, hidden] (the Poets model feeds it into a dense softmax
// head for next-character prediction). Gate layout inside the fused weight
// matrices is (input, forget, cell, output).
//
// Apart from the tensors it returns, a pass allocates nothing once its
// buffers have grown: the input projection x·W_x runs as one GEMM over all
// batch·seq rows, each timestep runs only the h·W_h GEMM, backward reads x_t
// and h_{t-1} in place as the transposed GEMM operand, and the input
// gradient of every timestep is one GEMM after the loop. Every element keeps
// the arithmetic of the per-timestep formulation (tests/lstm_oracle.hpp):
// pre = (x·W_x + h·W_h) + b, and each step's weight gradient is summed in
// its own product before it is added on.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace specdag::nn {

class LSTM : public Layer {
 public:
  LSTM(std::size_t in_dim, std::size_t hidden);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer(const float* weights, const Tensor& input, Tensor& out) override;
  std::vector<Param> params() override;
  void init_params(Rng& rng) override;
  std::string name() const override { return "LSTM"; }

  std::size_t hidden_size() const { return hidden_; }

 private:
  // The recurrence with weights wx [in_dim, 4H], wh [H, 4H] and b [4H]:
  // fills the buffers below and writes h at the last timestep into `out`.
  void run(const float* wx, const float* wh, const float* b, const Tensor& input, Tensor& out);

  std::size_t in_dim_;
  std::size_t hidden_;
  Tensor wx_;  // [in_dim, 4H]
  Tensor wh_;  // [H, 4H]
  Tensor b_;   // [4H]
  Tensor grad_wx_;
  Tensor grad_wh_;
  Tensor grad_b_;

  // Buffers of the last pass (batch B, sequence S); each grows on first use.
  std::vector<float> gates_;   // [B, S, 4H] x·W_x, then post-activation (i, f, g, o)
  std::vector<float> hw_;      // [B, 4H] h_{t-1}·W_h of the current step
  std::vector<float> c_;       // [S+1, B, H] c_0 = 0, then each step's cell state
  std::vector<float> h_;       // [S+1, B, H] h_0 = 0, then each step's output
  std::vector<float> tanh_c_;  // [S, B, H]
  // BPTT state, kept by a train-mode forward only.
  bool cached_ = false;
  Shape cached_input_shape_;
  std::vector<float> x_;       // [B, S, in_dim] the input
  std::vector<float> dgates_;  // [S, B, 4H]
  std::vector<float> dh_, dc_;           // [B, H]
  std::vector<float> w_t_;               // W_x^T [4H, in_dim], then W_h^T [4H, H]
  std::vector<float> step_grad_;         // one step's weight gradient
  std::vector<float> dx_;                // [S, B, in_dim]
};

}  // namespace specdag::nn
