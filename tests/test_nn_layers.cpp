#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "lstm_oracle.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/embedding.hpp"
#include "nn/init.hpp"
#include "nn/lstm.hpp"
#include "util/rng.hpp"

namespace specdag::nn {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-scale, scale));
  return t;
}

// ---------------------------------------------------------------- Dense ----

TEST(Dense, ForwardShapeAndValues) {
  Dense layer(3, 2);
  // W = row-major [3, 2]; set to known values via params().
  auto params = layer.params();
  params[0].value->data() = {1, 2, 3, 4, 5, 6};  // W
  params[1].value->data() = {0.5f, -0.5f};       // b
  Tensor input({1, 3}, {1, 1, 1});
  Tensor out = layer.forward(input, false);
  EXPECT_EQ(out.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0), 1 + 3 + 5 + 0.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 2 + 4 + 6 - 0.5f);
}

TEST(Dense, RejectsWrongInputShape) {
  Dense layer(3, 2);
  Tensor bad({1, 4});
  EXPECT_THROW(layer.forward(bad, false), std::invalid_argument);
  EXPECT_THROW(Dense(0, 2), std::invalid_argument);
}

TEST(Dense, BackwardWithoutForwardThrows) {
  Dense layer(2, 2);
  Tensor grad({1, 2});
  EXPECT_THROW(layer.backward(grad), std::logic_error);
}

TEST(Dense, GradCheckParams) {
  Rng rng(1);
  Dense layer(4, 3);
  layer.init_params(rng);
  testing::check_param_gradients(layer, random_tensor({2, 4}, rng));
}

TEST(Dense, GradCheckInput) {
  Rng rng(2);
  Dense layer(4, 3);
  layer.init_params(rng);
  testing::check_input_gradients(layer, random_tensor({2, 4}, rng));
}

TEST(Dense, GradientsAccumulateAcrossBackwards) {
  Rng rng(3);
  Dense layer(2, 2);
  layer.init_params(rng);
  Tensor input = random_tensor({1, 2}, rng);
  Tensor out = layer.forward(input, true);
  layer.backward(out);
  const auto g1 = layer.params()[0].grad->data();
  layer.forward(input, true);
  layer.backward(out);
  const auto g2 = layer.params()[0].grad->data();
  for (std::size_t i = 0; i < g1.size(); ++i) EXPECT_NEAR(g2[i], 2.0f * g1[i], 1e-4);
}

// ---------------------------------------------------------- Activations ----

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor input({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor out = relu.forward(input, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU relu;
  Tensor input({3}, {-1.0f, 1.0f, 2.0f});
  relu.forward(input, true);
  Tensor grad({3}, {10.0f, 10.0f, 10.0f});
  Tensor gin = relu.backward(grad);
  EXPECT_FLOAT_EQ(gin[0], 0.0f);
  EXPECT_FLOAT_EQ(gin[1], 10.0f);
  EXPECT_FLOAT_EQ(gin[2], 10.0f);
}

// --------------------------------------------------------------- Conv2D ----

TEST(Conv2D, SamePaddingPreservesSpatialDims) {
  Rng rng(7);
  Conv2D conv(2, 3, 5);
  conv.init_params(rng);
  Tensor out = conv.forward(random_tensor({1, 2, 8, 8}, rng), false);
  EXPECT_EQ(out.shape(), (Shape{1, 3, 8, 8}));
}

TEST(Conv2D, GradCheckParams) {
  Rng rng(8);
  Conv2D conv(1, 2, 3);
  conv.init_params(rng);
  testing::check_param_gradients(conv, random_tensor({1, 1, 5, 5}, rng));
}

TEST(Conv2D, GradCheckInput) {
  Rng rng(9);
  Conv2D conv(2, 2, 3);
  conv.init_params(rng);
  testing::check_input_gradients(conv, random_tensor({1, 2, 4, 4}, rng));
}

TEST(Conv2D, RejectsWrongChannelCount) {
  Conv2D conv(2, 3, 3);
  Tensor bad({1, 1, 4, 4});
  EXPECT_THROW(conv.forward(bad, false), std::invalid_argument);
}

// ------------------------------------------------------------- MaxPool2D ---

TEST(MaxPool2DLayer, GradCheckInput) {
  // Use distinct values so argmax is stable under the epsilon perturbation.
  MaxPool2D pool(2, 2);
  Tensor input({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) input[i] = static_cast<float>(i) * 1.7f;
  testing::check_input_gradients(pool, input);
}

TEST(MaxPool2DLayer, HalvesSpatialDims) {
  MaxPool2D pool(2, 2);
  Tensor input({2, 3, 8, 8});
  Tensor out = pool.forward(input, false);
  EXPECT_EQ(out.shape(), (Shape{2, 3, 4, 4}));
}

// -------------------------------------------------------------- Flatten ----

TEST(Flatten, RoundTrip) {
  Rng rng(10);
  Flatten flatten;
  Tensor input = random_tensor({2, 3, 4, 4}, rng);
  Tensor out = flatten.forward(input, true);
  EXPECT_EQ(out.shape(), (Shape{2, 48}));
  Tensor grad = flatten.backward(out);
  EXPECT_EQ(grad.shape(), input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i) EXPECT_FLOAT_EQ(grad[i], input[i]);
}

// ------------------------------------------------------------ Embedding ----

TEST(Embedding, LooksUpRows) {
  Embedding emb(4, 2);
  emb.params()[0].value->data() = {0, 1, 10, 11, 20, 21, 30, 31};
  Tensor tokens({1, 3}, {2.0f, 0.0f, 3.0f});
  Tensor out = emb.forward(tokens, false);
  EXPECT_EQ(out.shape(), (Shape{1, 3, 2}));
  EXPECT_FLOAT_EQ(out[0], 20.0f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
  EXPECT_FLOAT_EQ(out[4], 30.0f);
}

TEST(Embedding, RejectsOutOfVocabOrFractionalTokens) {
  Embedding emb(4, 2);
  Tensor too_big({1, 1}, {4.0f});
  EXPECT_THROW(emb.forward(too_big, false), std::invalid_argument);
  Tensor fractional({1, 1}, {1.5f});
  EXPECT_THROW(emb.forward(fractional, false), std::invalid_argument);
  Tensor negative({1, 1}, {-1.0f});
  EXPECT_THROW(emb.forward(negative, false), std::invalid_argument);
}

TEST(Embedding, BackwardAccumulatesPerToken) {
  Embedding emb(3, 2);
  Tensor tokens({1, 2}, {1.0f, 1.0f});  // same token twice
  emb.forward(tokens, true);
  Tensor grad({1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  emb.backward(grad);
  const auto& table_grad = emb.params()[0].grad->data();
  EXPECT_FLOAT_EQ(table_grad[2], 4.0f);  // row 1, dim 0: 1 + 3
  EXPECT_FLOAT_EQ(table_grad[3], 6.0f);  // row 1, dim 1: 2 + 4
  EXPECT_FLOAT_EQ(table_grad[0], 0.0f);  // row 0 untouched
}

// ----------------------------------------------------------------- LSTM ----

TEST(LSTM, OutputShape) {
  Rng rng(11);
  LSTM lstm(3, 5);
  lstm.init_params(rng);
  Tensor out = lstm.forward(random_tensor({2, 4, 3}, rng), false);
  EXPECT_EQ(out.shape(), (Shape{2, 5}));
}

TEST(LSTM, GradCheckParams) {
  Rng rng(12);
  LSTM lstm(2, 3);
  lstm.init_params(rng);
  testing::check_param_gradients(lstm, random_tensor({2, 3, 2}, rng), 5e-2, 1e-2f);
}

TEST(LSTM, GradCheckInput) {
  Rng rng(13);
  LSTM lstm(2, 3);
  lstm.init_params(rng);
  testing::check_input_gradients(lstm, random_tensor({2, 3, 2}, rng), 5e-2, 1e-2f);
}

TEST(LSTM, RejectsBadShapes) {
  LSTM lstm(3, 4);
  Tensor bad_rank({2, 3});
  EXPECT_THROW(lstm.forward(bad_rank, false), std::invalid_argument);
  Tensor bad_dim({1, 2, 4});
  EXPECT_THROW(lstm.forward(bad_dim, false), std::invalid_argument);
}

// The layer against its per-timestep formulation (tests/lstm_oracle.hpp),
// memcmp-exact over three train steps whose gradients accumulate.
TEST(LSTM, MatchesPerTimestepOracleOnThePoetsShape) {
  testing::expect_lstm_matches_oracle(8, 24, 10, 10, 21);
}

TEST(LSTM, MatchesPerTimestepOracleAtBatchOneAndSeqOne) {
  testing::expect_lstm_matches_oracle(8, 24, 1, 10, 22);
  testing::expect_lstm_matches_oracle(8, 24, 10, 1, 23);
}

// H = 5 and H = 33 leave partial column blocks in every GEMM: 4H = 20 and
// 132, and the hidden-gradient GEMM's n = H.
TEST(LSTM, MatchesPerTimestepOracleOnMaskedTails) {
  testing::expect_lstm_matches_oracle(8, 5, 3, 7, 24);
  testing::expect_lstm_matches_oracle(3, 33, 4, 6, 25);
}

// An all-zero timestep: the GEMMs skip every term of a zero A element.
TEST(LSTM, MatchesPerTimestepOracleWithAZeroTimestep) {
  testing::expect_lstm_matches_oracle(8, 24, 10, 10, 26, /*zero_step=*/3);
}

TEST(LSTM, BackwardNeedsATrainModeForward) {
  Rng rng(15);
  LSTM lstm(3, 4);
  lstm.init_params(rng);
  const Tensor input = random_tensor({2, 3, 3}, rng);
  const Tensor grad({2, 4});
  EXPECT_THROW(lstm.backward(grad), std::logic_error);
  lstm.forward(input, true);
  lstm.forward(input, false);
  EXPECT_THROW(lstm.backward(grad), std::logic_error);
  lstm.forward(input, true);
  std::vector<float> weights;
  for (const Param& p : lstm.params()) {
    weights.insert(weights.end(), p.value->data().begin(), p.value->data().end());
  }
  Tensor out;
  lstm.infer(weights.data(), input, out);
  EXPECT_THROW(lstm.backward(grad), std::logic_error);
}

TEST(LSTM, LongerSequenceChangesOutput) {
  Rng rng(14);
  LSTM lstm(2, 3);
  lstm.init_params(rng);
  Tensor short_seq = random_tensor({1, 2, 2}, rng);
  Tensor long_seq({1, 4, 2});
  std::copy(short_seq.data().begin(), short_seq.data().end(), long_seq.data().begin());
  const Tensor out_short = lstm.forward(short_seq, false);
  const Tensor out_long = lstm.forward(long_seq, false);
  double diff = 0.0;
  for (std::size_t i = 0; i < out_short.numel(); ++i) {
    diff += std::abs(out_short[i] - out_long[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

// ----------------------------------------------------------------- init ----

TEST(Init, GlorotWithinLimit) {
  Rng rng(19);
  Tensor t({100, 50});
  glorot_uniform(t, 100, 50, rng);
  const double limit = std::sqrt(6.0 / 150.0);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::abs(t[i]), limit + 1e-6);
  }
}

TEST(Init, NormalStddev) {
  Rng rng(20);
  Tensor t({10000});
  normal_init(t, 0.5, rng);
  double sq = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) sq += static_cast<double>(t[i]) * t[i];
  EXPECT_NEAR(std::sqrt(sq / 10000.0), 0.5, 0.05);
}

}  // namespace
}  // namespace specdag::nn
