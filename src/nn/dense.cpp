#include "nn/dense.hpp"

#include "nn/init.hpp"
#include "tensor/ops.hpp"

namespace specdag::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_({in_features, out_features}),
      bias_({out_features}),
      grad_weight_({in_features, out_features}),
      grad_bias_({out_features}) {
  if (in_ == 0 || out_ == 0) throw std::invalid_argument("Dense: zero-sized layer");
}

void Dense::check_input(const Tensor& input) const {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Dense: expected [batch, " + std::to_string(in_) + "], got " +
                                shape_to_string(input.shape()));
  }
}

Tensor Dense::forward(const Tensor& input, bool train) {
  check_input(input);
  if (train) cached_input_ = input;
  Tensor out = matmul(input, weight_);
  add_row_bias(out, bias_);
  return out;
}

// forward's two kernels, on the weight slice [W (in x out) | b (out)].
void Dense::infer(const float* weights, const Tensor& input, Tensor& out) {
  check_input(input);
  const std::size_t batch = input.dim(0);
  out.resize({batch, out_});
  matmul_into(input.raw(), weights, out.raw(), batch, in_, out_);
  add_row_bias_into(out.raw(), weights + in_ * out_, batch, out_);
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (cached_input_.numel() == 0) {
    throw std::logic_error("Dense::backward: no cached forward activation");
  }
  // dW += x^T g ; db += colsum(g) ; dx = g W^T
  // The dW product lands in a persistent scratch buffer (zeroed, accumulated
  // into, then added onto grad_weight_ — same arithmetic as the old
  // tmp-Tensor path without the per-batch allocation).
  grad_w_scratch_.assign(in_ * out_, 0.0f);
  matmul_transposed_a_acc(cached_input_.raw(), grad_output.raw(), grad_w_scratch_.data(),
                          grad_output.dim(0), in_, out_);
  for (std::size_t i = 0; i < grad_w_scratch_.size(); ++i) {
    grad_weight_[i] += grad_w_scratch_[i];
  }
  const std::size_t batch = grad_output.dim(0);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < out_; ++c) grad_bias_[c] += grad_output.at(r, c);
  }
  return matmul_transposed_b(grad_output, weight_);
}

std::vector<Param> Dense::params() {
  return {{&weight_, &grad_weight_, "dense.weight"}, {&bias_, &grad_bias_, "dense.bias"}};
}

void Dense::init_params(Rng& rng) {
  glorot_uniform(weight_, in_, out_, rng);
  zero_init(bias_);
}

}  // namespace specdag::nn
