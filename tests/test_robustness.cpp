// Robustness and cross-validation tests: layer implementations
// cross-checked against manual math, and numerical edge cases of the loss.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "util/rng.hpp"

namespace specdag {
namespace {

// ---------------------------------------------- LSTM vs manual unrolling ---

TEST(LstmCrossCheck, SingleStepMatchesGateMath) {
  // seq = 1, batch = 1: h = o * tanh(i * g) with zero initial state.
  nn::LSTM lstm(2, 2);
  auto params = lstm.params();
  // wx [2, 8] (gate order i, f, g, o), wh irrelevant (h0 = 0), b = 0.
  std::vector<float>& wx = params[0].value->data();
  std::fill(wx.begin(), wx.end(), 0.0f);
  // x = (1, 0): route x[0] into i/g/o of unit 0.
  // Columns: [i0 i1 f0 f1 g0 g1 o0 o1] for row 0 of wx.
  wx[0] = 1.0f;  // i0
  wx[4] = 2.0f;  // g0
  wx[6] = 3.0f;  // o0
  Tensor x({1, 1, 2}, {1.0f, 0.0f});
  const Tensor h = lstm.forward(x, false);
  const float i = 1.0f / (1.0f + std::exp(-1.0f));
  const float g = std::tanh(2.0f);
  const float o = 1.0f / (1.0f + std::exp(-3.0f));
  const float c = i * g;  // f * c_prev = 0
  EXPECT_NEAR(h[0], o * std::tanh(c), 1e-5);
  // Unit 1 got zero pre-activations: i=f=o=0.5, g=0, c=0, h=0.
  EXPECT_NEAR(h[1], 0.0f, 1e-6);
}

TEST(LstmCrossCheck, ForgetGateCarriesState) {
  // Two timesteps; second input is zero, so c2 = f * c1 and the output
  // reflects the carried cell state.
  nn::LSTM lstm(1, 1);
  auto params = lstm.params();
  std::vector<float>& wx = params[0].value->data();  // [1, 4]
  std::vector<float>& b = params[2].value->data();   // [4]
  std::fill(wx.begin(), wx.end(), 0.0f);
  std::fill(b.begin(), b.end(), 0.0f);
  wx[0] = 10.0f;  // i: saturates to ~1 for x=1
  wx[2] = 10.0f;  // g: tanh(10) ~ 1
  b[1] = 10.0f;   // f: always ~1 (remember everything)
  b[3] = 10.0f;   // o: always ~1
  Tensor x({1, 2, 1}, {1.0f, 0.0f});
  const Tensor h = lstm.forward(x, false);
  // c1 ~ 1; step 2: i2 = sigmoid(0) = 0.5, g2 = 0 -> c2 ~ c1 ~ 1.
  EXPECT_NEAR(h[0], std::tanh(1.0f), 5e-2);
}

// ----------------------------------------------- conv stride cross-check ---

TEST(ConvCrossCheck, Stride2MatchesManual) {
  // 1x1x4x4 input, 2x2 kernel of ones, stride 2, no padding: each output is
  // the window sum.
  nn::Conv2D conv(1, 1, 2, /*stride=*/2, /*same_padding=*/false);
  auto params = conv.params();
  params[0].value->data() = {1, 1, 1, 1};
  params[1].value->data() = {0};
  Tensor input({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  const Tensor out = conv.forward(input, false);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 0 + 1 + 4 + 5);
  EXPECT_FLOAT_EQ(out[1], 2 + 3 + 6 + 7);
  EXPECT_FLOAT_EQ(out[2], 8 + 9 + 12 + 13);
  EXPECT_FLOAT_EQ(out[3], 10 + 11 + 14 + 15);
}

// ----------------------------------------------------- loss edge cases -----

TEST(LossEdgeCases, HugeLogitsDoNotOverflow) {
  Tensor logits({1, 3}, {1000.0f, -1000.0f, 0.0f});
  const nn::LossResult result = nn::softmax_cross_entropy(logits, {0});
  EXPECT_TRUE(std::isfinite(result.loss));
  EXPECT_NEAR(result.loss, 0.0, 1e-5);  // the correct class dominates
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(std::isfinite(result.grad_logits[i]));
}

TEST(LossEdgeCases, ConfidentlyWrongHasLargeFiniteLoss) {
  Tensor logits({1, 2}, {100.0f, -100.0f});
  const double loss = nn::softmax_cross_entropy_loss(logits, std::vector<int>{1});
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 10.0);
}

TEST(LossEdgeCases, SingleClassDatasetGivesZeroLoss) {
  // Degenerate single-class output head: softmax over one logit is 1.
  Tensor logits({2, 1}, {3.0f, -5.0f});
  EXPECT_NEAR(nn::softmax_cross_entropy_loss(logits, std::vector<int>{0, 0}), 0.0, 1e-6);
}

TEST(LossEdgeCases, GradientSumsToZeroPerRow) {
  // softmax - onehot sums to zero along classes for every row.
  Rng rng(9);
  Tensor logits({4, 6});
  for (auto& v : logits.data()) v = static_cast<float>(rng.uniform(-3.0, 3.0));
  const nn::LossResult result = nn::softmax_cross_entropy(logits, {0, 1, 2, 3});
  for (std::size_t r = 0; r < 4; ++r) {
    float row_sum = 0.0f;
    for (std::size_t c = 0; c < 6; ++c) row_sum += result.grad_logits.at(r, c);
    EXPECT_NEAR(row_sum, 0.0f, 1e-6);
  }
}

}  // namespace
}  // namespace specdag
