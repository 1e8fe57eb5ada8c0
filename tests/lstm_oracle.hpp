// A reference LSTM that steps through time one matmul at a time, and a check
// that holds nn::LSTM to it bit for bit.
//
// LstmOracle is the layer's original per-timestep formulation, kept only
// here: every step slices x_t, runs x_t·W_x and h·W_h as separate matmuls,
// and its backward computes each step's input gradient on its own. The
// production layer batches the input projection and the input gradient
// over all timesteps and keeps its buffers across passes; both must give
// the same bits in the output, the input gradient and all three parameter
// gradients.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/activations.hpp"
#include "nn/lstm.hpp"
#include "tensor/ops.hpp"

namespace specdag::testing {

class LstmOracle {
 public:
  // Starts from `layer`'s current parameters.
  explicit LstmOracle(nn::LSTM& layer) : hidden_(layer.hidden_size()) {
    const std::vector<nn::Param> from = layer.params();
    Tensor* to[] = {&wx_, &wh_, &b_};
    Tensor* grads[] = {&grad_wx_, &grad_wh_, &grad_b_};
    for (std::size_t i = 0; i < 3; ++i) {
      *to[i] = *from[i].value;
      *grads[i] = *from[i].grad;
    }
    in_dim_ = wx_.dim(0);
  }

  std::vector<nn::Param> params() {
    return {{&wx_, &grad_wx_, "wx"}, {&wh_, &grad_wh_, "wh"}, {&b_, &grad_b_, "b"}};
  }

  Tensor forward(const Tensor& input, bool train) {
    using nn::sigmoidf;
    using nn::tanhf_;
    const std::size_t batch = input.dim(0), seq = input.dim(1);
    steps_.clear();
    cached_input_shape_ = input.shape();

    Tensor h({batch, hidden_});
    Tensor c({batch, hidden_});
    for (std::size_t t = 0; t < seq; ++t) {
      Tensor x({batch, in_dim_});
      for (std::size_t bidx = 0; bidx < batch; ++bidx) {
        const float* src = input.raw() + (bidx * seq + t) * in_dim_;
        std::copy(src, src + in_dim_, x.raw() + bidx * in_dim_);
      }
      Tensor pre = matmul(x, wx_);
      pre += matmul(h, wh_);
      add_row_bias(pre, b_);
      Tensor gates = pre;
      for (std::size_t bidx = 0; bidx < batch; ++bidx) {
        float* row = gates.raw() + bidx * 4 * hidden_;
        for (std::size_t j = 0; j < hidden_; ++j) {
          row[j] = sigmoidf(row[j]);
          row[hidden_ + j] = sigmoidf(row[hidden_ + j]);
          row[2 * hidden_ + j] = tanhf_(row[2 * hidden_ + j]);
          row[3 * hidden_ + j] = sigmoidf(row[3 * hidden_ + j]);
        }
      }
      Tensor c_next({batch, hidden_});
      Tensor h_next({batch, hidden_});
      for (std::size_t bidx = 0; bidx < batch; ++bidx) {
        const float* grow = gates.raw() + bidx * 4 * hidden_;
        const float* crow = c.raw() + bidx * hidden_;
        float* cn = c_next.raw() + bidx * hidden_;
        float* hn = h_next.raw() + bidx * hidden_;
        for (std::size_t j = 0; j < hidden_; ++j) {
          const float i = grow[j], f = grow[hidden_ + j], g = grow[2 * hidden_ + j],
                      o = grow[3 * hidden_ + j];
          cn[j] = f * crow[j] + i * g;
          hn[j] = o * tanhf_(cn[j]);
        }
      }
      if (train) steps_.push_back({std::move(x), h, c, std::move(gates), c_next});
      h = std::move(h_next);
      c = std::move(c_next);
    }
    return h;
  }

  Tensor backward(const Tensor& grad_output) {
    if (steps_.empty()) throw std::logic_error("LstmOracle::backward: no cached forward pass");
    const std::size_t batch = cached_input_shape_[0], seq = cached_input_shape_[1];
    Tensor grad_input(cached_input_shape_);
    Tensor dh = grad_output;
    Tensor dc({batch, hidden_});
    for (std::size_t ti = seq; ti-- > 0;) {
      const StepCache& st = steps_[ti];
      Tensor dgates({batch, 4 * hidden_});
      for (std::size_t bidx = 0; bidx < batch; ++bidx) {
        const float* grow = st.gates.raw() + bidx * 4 * hidden_;
        const float* crow = st.c.raw() + bidx * hidden_;
        const float* cprev = st.c_prev.raw() + bidx * hidden_;
        const float* dhrow = dh.raw() + bidx * hidden_;
        float* dcrow = dc.raw() + bidx * hidden_;
        float* dgrow = dgates.raw() + bidx * 4 * hidden_;
        for (std::size_t j = 0; j < hidden_; ++j) {
          const float i = grow[j], f = grow[hidden_ + j], g = grow[2 * hidden_ + j],
                      o = grow[3 * hidden_ + j];
          const float tc = nn::tanhf_(crow[j]);
          const float do_ = dhrow[j] * tc;
          const float dc_total = dcrow[j] + dhrow[j] * o * (1.0f - tc * tc);
          const float di = dc_total * g;
          const float df = dc_total * cprev[j];
          const float dg = dc_total * i;
          dgrow[j] = di * i * (1.0f - i);
          dgrow[hidden_ + j] = df * f * (1.0f - f);
          dgrow[2 * hidden_ + j] = dg * (1.0f - g * g);
          dgrow[3 * hidden_ + j] = do_ * o * (1.0f - o);
          dcrow[j] = dc_total * f;
        }
      }
      grad_wx_ += matmul_transposed_a(st.x, dgates);
      grad_wh_ += matmul_transposed_a(st.h_prev, dgates);
      for (std::size_t bidx = 0; bidx < batch; ++bidx) {
        const float* dgrow = dgates.raw() + bidx * 4 * hidden_;
        for (std::size_t j = 0; j < 4 * hidden_; ++j) grad_b_[j] += dgrow[j];
      }
      Tensor dx = matmul_transposed_b(dgates, wx_);
      for (std::size_t bidx = 0; bidx < batch; ++bidx) {
        float* dst = grad_input.raw() + (bidx * seq + ti) * in_dim_;
        const float* src = dx.raw() + bidx * in_dim_;
        std::copy(src, src + in_dim_, dst);
      }
      dh = matmul_transposed_b(dgates, wh_);
    }
    return grad_input;
  }

 private:
  struct StepCache {
    Tensor x, h_prev, c_prev, gates, c;
  };
  std::size_t in_dim_ = 0;
  std::size_t hidden_;
  Tensor wx_, wh_, b_, grad_wx_, grad_wh_, grad_b_;
  std::vector<StepCache> steps_;
  Shape cached_input_shape_;
};

inline bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

// w -= lr * g on every parameter, leaving the gradients in place so the
// next backward accumulates onto them.
inline void sgd_keep_grads(const std::vector<nn::Param>& params, float lr) {
  for (const nn::Param& p : params) {
    for (std::size_t k = 0; k < p.value->numel(); ++k) (*p.value)[k] -= lr * (*p.grad)[k];
  }
}

// `steps` train steps of `layer` and an oracle copy of it on the same
// inputs and output gradients (uniform in [-1, 1] from `seed`; timestep
// `zero_step` of every input all zeros when it is below seq), with an SGD
// step between them. Every output, input gradient and parameter gradient
// must match the oracle's bits, and so must an infer() on the final weights.
inline void expect_lstm_matches_oracle(std::size_t in_dim, std::size_t hidden,
                                       std::size_t batch, std::size_t seq, std::uint64_t seed,
                                       std::size_t zero_step = SIZE_MAX, int steps = 3) {
  SCOPED_TRACE(::testing::Message() << "in " << in_dim << " hidden " << hidden << " batch "
                                    << batch << " seq " << seq << " zero_step " << zero_step);
  Rng rng(seed);
  nn::LSTM layer(in_dim, hidden);
  layer.init_params(rng);
  LstmOracle oracle(layer);
  const auto uniform = [&rng](Shape shape) {
    Tensor t(std::move(shape));
    for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
  };
  Tensor input;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "train step " << step);
    input = uniform({batch, seq, in_dim});
    if (zero_step < seq) {
      for (std::size_t bidx = 0; bidx < batch; ++bidx) {
        std::fill_n(input.raw() + (bidx * seq + zero_step) * in_dim, in_dim, 0.0f);
      }
    }
    const Tensor grad_output = uniform({batch, hidden});
    EXPECT_TRUE(same_bits(layer.forward(input, true), oracle.forward(input, true)));
    EXPECT_TRUE(same_bits(layer.backward(grad_output), oracle.backward(grad_output)));
    const std::vector<nn::Param> got = layer.params(), want = oracle.params();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_bits(*got[i].grad, *want[i].grad)) << got[i].name;
    }
    sgd_keep_grads(got, 0.5f);
    sgd_keep_grads(want, 0.5f);
  }
  std::vector<float> weights;
  for (const nn::Param& p : layer.params()) {
    weights.insert(weights.end(), p.value->data().begin(), p.value->data().end());
  }
  Tensor inferred;
  layer.infer(weights.data(), input, inferred);
  EXPECT_TRUE(same_bits(inferred, oracle.forward(input, false)));
}

}  // namespace specdag::testing
