#include "nn/conv.hpp"

#include "nn/init.hpp"

namespace specdag::nn {

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, bool same_padding)
    : filters_({out_channels, in_channels * kernel * kernel}),
      bias_({out_channels}),
      grad_filters_({out_channels, in_channels * kernel * kernel}),
      grad_bias_({out_channels}) {
  if (in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0) {
    throw std::invalid_argument("Conv2D: zero-sized configuration");
  }
  spec_.in_channels = in_channels;
  spec_.out_channels = out_channels;
  spec_.kernel = kernel;
  spec_.stride = stride;
  spec_.padding = same_padding ? (kernel - 1) / 2 : 0;
}

Tensor Conv2D::forward(const Tensor& input, bool train) {
  if (input.rank() != 4 || input.dim(1) != spec_.in_channels) {
    throw std::invalid_argument("Conv2D::forward: expected NCHW with C=" +
                                std::to_string(spec_.in_channels) + ", got " +
                                shape_to_string(input.shape()));
  }
  const std::size_t n = input.dim(0);
  const std::size_t oh = spec_.out_dim(input.dim(2));
  const std::size_t ow = spec_.out_dim(input.dim(3));
  const std::size_t positions = oh * ow;
  const std::size_t ckk = spec_.in_channels * spec_.kernel * spec_.kernel;
  if (train) {
    // im2col into the cached-cols tensor (resized in place — capacity is
    // reused across batches) so backward can replay the forward matmul.
    cached_cols_.resize({n * positions, ckk});
    im2col_into(input.raw(), n, input.dim(2), input.dim(3), spec_, cached_cols_.raw());
    cached_input_shape_ = input.shape();
    out_cols_scratch_.resize(n * positions * spec_.out_channels);
    matmul_transposed_b_into(cached_cols_.raw(), filters_.raw(), out_cols_scratch_.data(),
                             n * positions, ckk, spec_.out_channels);
    add_row_bias_into(out_cols_scratch_.data(), bias_.raw(), n * positions,
                      spec_.out_channels);
    Tensor output({n, spec_.out_channels, oh, ow});
    positions_to_nchw(out_cols_scratch_.data(), output.raw(), n, spec_.out_channels,
                      positions);
    return output;
  }
  // Eval path: same pipeline through scratch buffers that persist across
  // calls (the old conv2d_forward free function allocated cols every time).
  eval_cols_scratch_.resize(n * positions * ckk);
  im2col_into(input.raw(), n, input.dim(2), input.dim(3), spec_, eval_cols_scratch_.data());
  out_cols_scratch_.resize(n * positions * spec_.out_channels);
  matmul_transposed_b_into(eval_cols_scratch_.data(), filters_.raw(), out_cols_scratch_.data(),
                           n * positions, ckk, spec_.out_channels);
  add_row_bias_into(out_cols_scratch_.data(), bias_.raw(), n * positions, spec_.out_channels);
  Tensor output({n, spec_.out_channels, oh, ow});
  positions_to_nchw(out_cols_scratch_.data(), output.raw(), n, spec_.out_channels, positions);
  return output;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  // dInput = col2im(grad_cols @ filters), grad_cols as backward_params left it.
  const std::size_t n = cached_input_shape_[0];
  const std::size_t positions =
      spec_.out_dim(cached_input_shape_[2]) * spec_.out_dim(cached_input_shape_[3]);
  const std::size_t ckk = spec_.in_channels * spec_.kernel * spec_.kernel;
  dcols_scratch_.resize(n * positions * ckk);
  matmul_into(grad_cols_scratch_.data(), filters_.raw(), dcols_scratch_.data(), n * positions,
              spec_.out_channels, ckk);
  Tensor grad_input(cached_input_shape_);
  col2im_into(dcols_scratch_.data(), n, cached_input_shape_[2], cached_input_shape_[3], spec_,
              grad_input.raw());
  return grad_input;
}

void Conv2D::backward_params(const Tensor& grad_output) {
  if (cached_cols_.numel() == 0) {
    throw std::logic_error("Conv2D::backward: no cached forward activation");
  }
  const std::size_t n = cached_input_shape_[0];
  const std::size_t oh = spec_.out_dim(cached_input_shape_[2]);
  const std::size_t ow = spec_.out_dim(cached_input_shape_[3]);
  const std::size_t positions = oh * ow;
  if (grad_output.rank() != 4 || grad_output.dim(0) != n ||
      grad_output.dim(1) != spec_.out_channels || grad_output.dim(2) != oh ||
      grad_output.dim(3) != ow) {
    throw std::invalid_argument("Conv2D::backward: grad shape mismatch");
  }
  // Rearrange grad NCHW -> [N*OH*OW, OC] to mirror the forward matmul.
  grad_cols_scratch_.resize(n * positions * spec_.out_channels);
  nchw_to_positions(grad_output.raw(), grad_cols_scratch_.data(), n, spec_.out_channels,
                    positions);
  const float* pc = grad_cols_scratch_.data();
  // dFilters += grad_cols^T @ cols ; dBias += colsum(grad_cols)
  const std::size_t ckk = spec_.in_channels * spec_.kernel * spec_.kernel;
  grad_f_scratch_.assign(spec_.out_channels * ckk, 0.0f);
  matmul_transposed_a_acc(pc, cached_cols_.raw(), grad_f_scratch_.data(), n * positions,
                          spec_.out_channels, ckk);
  for (std::size_t i = 0; i < grad_f_scratch_.size(); ++i) {
    grad_filters_[i] += grad_f_scratch_[i];
  }
  for (std::size_t r = 0; r < n * positions; ++r) {
    for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
      grad_bias_[oc] += pc[r * spec_.out_channels + oc];
    }
  }
}

std::vector<Param> Conv2D::params() {
  return {{&filters_, &grad_filters_, "conv.filters"}, {&bias_, &grad_bias_, "conv.bias"}};
}

void Conv2D::init_params(Rng& rng) {
  const std::size_t fan_in = spec_.in_channels * spec_.kernel * spec_.kernel;
  const std::size_t fan_out = spec_.out_channels * spec_.kernel * spec_.kernel;
  glorot_uniform(filters_, fan_in, fan_out, rng);
  zero_init(bias_);
}

MaxPool2D::MaxPool2D(std::size_t size, std::size_t stride) : size_(size), stride_(stride) {
  if (size == 0 || stride == 0) throw std::invalid_argument("MaxPool2D: zero size/stride");
}

Tensor MaxPool2D::forward(const Tensor& input, bool train) {
  MaxPoolResult result = maxpool2d_forward(input, size_, stride_);
  if (train) {
    cached_input_shape_ = input.shape();
    cached_argmax_ = std::move(result.argmax);
  }
  return std::move(result.output);
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  if (cached_argmax_.empty()) {
    throw std::logic_error("MaxPool2D::backward: no cached forward activation");
  }
  return maxpool2d_backward(grad_output, cached_input_shape_, cached_argmax_);
}

Tensor Flatten::forward(const Tensor& input, bool train) {
  if (input.rank() < 2) throw std::invalid_argument("Flatten: input rank must be >= 2");
  if (train) cached_input_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  return input.reshaped({batch, input.numel() / batch});
}

void Flatten::infer(const float* /*weights*/, const Tensor& input, Tensor& out) {
  if (input.rank() < 2) throw std::invalid_argument("Flatten: input rank must be >= 2");
  const std::size_t batch = input.dim(0);
  out.resize({batch, input.numel() / batch});
  std::copy(input.data().begin(), input.data().end(), out.data().begin());
}

Tensor Flatten::backward(const Tensor& grad_output) {
  if (cached_input_shape_.empty()) {
    throw std::logic_error("Flatten::backward: no cached forward activation");
  }
  return grad_output.reshaped(cached_input_shape_);
}

}  // namespace specdag::nn
