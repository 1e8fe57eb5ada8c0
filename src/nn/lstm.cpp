#include "nn/lstm.hpp"

#include <algorithm>

#include "nn/init.hpp"
#include "tensor/lanes.hpp"
#include "tensor/ops.hpp"

namespace specdag::nn {

LSTM::LSTM(std::size_t in_dim, std::size_t hidden)
    : in_dim_(in_dim),
      hidden_(hidden),
      wx_({in_dim, 4 * hidden}),
      wh_({hidden, 4 * hidden}),
      b_({4 * hidden}),
      grad_wx_({in_dim, 4 * hidden}),
      grad_wh_({hidden, 4 * hidden}),
      grad_b_({4 * hidden}) {
  if (in_dim == 0 || hidden == 0) throw std::invalid_argument("LSTM: zero-sized layer");
}

void LSTM::run(const float* wx, const float* wh, const float* b, const Tensor& input,
               Tensor& out) {
  if (input.rank() != 3 || input.dim(2) != in_dim_) {
    throw std::invalid_argument("LSTM::forward: expected [batch, seq, " +
                                std::to_string(in_dim_) + "], got " +
                                shape_to_string(input.shape()));
  }
  const std::size_t batch = input.dim(0), seq = input.dim(1), H = hidden_, G = 4 * hidden_;
  if (seq == 0) throw std::invalid_argument("LSTM::forward: empty sequence");
  cached_ = false;
  gates_.resize(batch * seq * G);
  hw_.resize(batch * G);
  c_.resize((seq + 1) * batch * H);
  h_.resize((seq + 1) * batch * H);
  tanh_c_.resize(seq * batch * H);
  std::fill_n(c_.begin(), batch * H, 0.0f);
  std::fill_n(h_.begin(), batch * H, 0.0f);
  // x·W_x for every timestep at once; row b·S + t is (batch b, step t).
  lanes::gemm({.a = input.raw(), .a_row_stride = in_dim_, .a_k_stride = 1, .b = wx,
               .c = gates_.data(), .m = batch * seq, .k = in_dim_, .n = G});
  for (std::size_t t = 0; t < seq; ++t) {
    lanes::gemm({.a = h_.data() + t * batch * H, .a_row_stride = H, .a_k_stride = 1, .b = wh,
                 .c = hw_.data(), .m = batch, .k = H, .n = G});
    const std::size_t row = t * batch * H, next = row + batch * H;
    for (std::size_t bidx = 0; bidx < batch; ++bidx) {
      float* gate = gates_.data() + (bidx * seq + t) * G;
      const float* hw = hw_.data() + bidx * G;
      for (std::size_t j = 0; j < G; ++j) gate[j] = gate[j] + hw[j] + b[j];
      // Gate nonlinearities in place: sigmoid for i/f, tanh for g, sigmoid for o.
      lanes::sigmoid(gate, gate, 2 * H);
      lanes::tanh(gate + 2 * H, gate + 2 * H, H);
      lanes::sigmoid(gate + 3 * H, gate + 3 * H, H);
      const std::size_t off = bidx * H;
      for (std::size_t j = 0; j < H; ++j) {  // c_t = f·c_{t-1} + i·g
        c_[next + off + j] = gate[H + j] * c_[row + off + j] + gate[j] * gate[2 * H + j];
      }
    }
    // h_t = o·tanh(c_t), with tanh over the whole [batch, H] step at once.
    lanes::tanh(c_.data() + next, tanh_c_.data() + row, batch * H);
    for (std::size_t bidx = 0; bidx < batch; ++bidx) {
      const float* o = gates_.data() + (bidx * seq + t) * G + 3 * H;
      const std::size_t off = bidx * H;
      for (std::size_t j = 0; j < H; ++j) h_[next + off + j] = o[j] * tanh_c_[row + off + j];
    }
  }
  out.resize({batch, H});
  std::copy_n(h_.data() + seq * batch * H, batch * H, out.raw());
}

Tensor LSTM::forward(const Tensor& input, bool train) {
  Tensor out;
  run(wx_.raw(), wh_.raw(), b_.raw(), input, out);
  if (train) {
    x_.assign(input.raw(), input.raw() + input.numel());
    cached_input_shape_ = input.shape();
    cached_ = true;
  }
  return out;
}

// forward on the weight slice [W_x | W_h | b], read in place.
void LSTM::infer(const float* weights, const Tensor& input, Tensor& out) {
  const float* wh = weights + in_dim_ * 4 * hidden_;
  run(weights, wh, wh + hidden_ * 4 * hidden_, input, out);
}

Tensor LSTM::backward(const Tensor& grad_output) {
  if (!cached_) throw std::logic_error("LSTM::backward: no cached forward pass");
  const std::size_t batch = cached_input_shape_[0], seq = cached_input_shape_[1];
  const std::size_t H = hidden_, G = 4 * hidden_;
  if (grad_output.rank() != 2 || grad_output.dim(0) != batch || grad_output.dim(1) != H) {
    throw std::invalid_argument("LSTM::backward: grad shape mismatch");
  }
  w_t_.resize(G * (in_dim_ + H));
  float* const wx_t = w_t_.data();
  float* const wh_t = wx_t + G * in_dim_;
  transpose_into(wx_.raw(), wx_t, in_dim_, G);
  transpose_into(wh_.raw(), wh_t, H, G);
  dgates_.resize(seq * batch * G);
  dh_.assign(grad_output.raw(), grad_output.raw() + batch * H);  // dL/dh_t flowing backwards
  dc_.assign(batch * H, 0.0f);                                   // dL/dc_t
  step_grad_.resize(std::max(in_dim_, H) * G);

  for (std::size_t ti = seq; ti-- > 0;) {
    float* dgates = dgates_.data() + ti * batch * G;
    // Gate gradients: gates are (i, f, g, o) post-activation.
    for (std::size_t bidx = 0; bidx < batch; ++bidx) {
      const float* grow = gates_.data() + (bidx * seq + ti) * G;
      const std::size_t row = (ti * batch + bidx) * H;  // c_{t-1} and tanh(c_t)
      const float* dhrow = dh_.data() + bidx * H;
      float* dcrow = dc_.data() + bidx * H;
      float* dgrow = dgates + bidx * G;
      for (std::size_t j = 0; j < H; ++j) {
        const float i = grow[j], f = grow[H + j], g = grow[2 * H + j], o = grow[3 * H + j];
        const float tc = tanh_c_[row + j];
        // h = o * tanh(c): contributions into o and c.
        const float do_ = dhrow[j] * tc;
        const float dc_total = dcrow[j] + dhrow[j] * o * (1.0f - tc * tc);
        const float di = dc_total * g;
        const float df = dc_total * c_[row + j];
        const float dg = dc_total * i;
        // Chain through the gate nonlinearities.
        dgrow[j] = di * i * (1.0f - i);
        dgrow[H + j] = df * f * (1.0f - f);
        dgrow[2 * H + j] = dg * (1.0f - g * g);
        dgrow[3 * H + j] = do_ * o * (1.0f - o);
        // dc flows to the previous timestep through the forget gate.
        dcrow[j] = dc_total * f;
      }
    }
    // Parameter gradients: x_t^T·dgates and h_{t-1}^T·dgates, each summed
    // on its own and then added on, with x_t and h_{t-1} read in place.
    lanes::gemm({.a = x_.data() + ti * in_dim_, .a_row_stride = 1, .a_k_stride = seq * in_dim_,
                 .b = dgates, .c = step_grad_.data(), .m = in_dim_, .k = batch, .n = G});
    for (std::size_t k = 0; k < in_dim_ * G; ++k) grad_wx_[k] += step_grad_[k];
    lanes::gemm({.a = h_.data() + ti * batch * H, .a_row_stride = 1, .a_k_stride = H,
                 .b = dgates, .c = step_grad_.data(), .m = H, .k = batch, .n = G});
    for (std::size_t k = 0; k < H * G; ++k) grad_wh_[k] += step_grad_[k];
    for (std::size_t bidx = 0; bidx < batch; ++bidx) {
      for (std::size_t j = 0; j < G; ++j) grad_b_[j] += dgates[bidx * G + j];
    }
    // Hidden gradient for the previous timestep.
    if (ti > 0) {
      lanes::gemm({.a = dgates, .a_row_stride = G, .a_k_stride = 1, .b = wh_t,
                   .c = dh_.data(), .m = batch, .k = G, .n = H});
    }
  }
  // Input gradient of every timestep at once; row t·B + b is (step t, batch b).
  dx_.resize(seq * batch * in_dim_);
  lanes::gemm({.a = dgates_.data(), .a_row_stride = G, .a_k_stride = 1, .b = wx_t,
               .c = dx_.data(), .m = seq * batch, .k = G, .n = in_dim_});
  Tensor grad_input(cached_input_shape_);
  for (std::size_t r = 0; r < seq * batch; ++r) {
    std::copy_n(dx_.data() + r * in_dim_, in_dim_,
                grad_input.raw() + ((r % batch) * seq + r / batch) * in_dim_);
  }
  return grad_input;
}

std::vector<Param> LSTM::params() {
  return {{&wx_, &grad_wx_, "lstm.wx"}, {&wh_, &grad_wh_, "lstm.wh"}, {&b_, &grad_b_, "lstm.b"}};
}

void LSTM::init_params(Rng& rng) {
  glorot_uniform(wx_, in_dim_, 4 * hidden_, rng);
  glorot_uniform(wh_, hidden_, 4 * hidden_, rng);
  zero_init(b_);
  // Forget-gate bias of 1.0: standard trick to ease gradient flow early on.
  for (std::size_t j = 0; j < hidden_; ++j) b_[hidden_ + j] = 1.0f;
}

}  // namespace specdag::nn
