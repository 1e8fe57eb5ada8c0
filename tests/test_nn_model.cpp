#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "sim/models.hpp"
#include "util/rng.hpp"

namespace specdag::nn {
namespace {

Sequential make_tiny_mlp() {
  Sequential model;
  model.add<Dense>(4, 8);
  model.add<ReLU>();
  model.add<Dense>(8, 3);
  return model;
}

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

// ----------------------------------------------------------------- loss ----

TEST(Softmax, RowsSumToOne) {
  Tensor logits({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor probs = softmax(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) sum += probs.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
}

TEST(Softmax, InvariantToShift) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b({1, 3}, {101, 102, 103});
  Tensor pa = softmax(a), pb = softmax(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(pa[i], pb[i], 1e-6);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits({1, 4});
  const LossResult result = softmax_cross_entropy(logits, {2});
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-5);
}

TEST(SoftmaxCrossEntropy, GradientIsSoftmaxMinusOnehotOverBatch) {
  Tensor logits({2, 2}, {0, 0, 0, 0});
  const LossResult result = softmax_cross_entropy(logits, {0, 1});
  // softmax = 0.5 everywhere; grad = (p - onehot)/batch.
  EXPECT_NEAR(result.grad_logits.at(0, 0), (0.5 - 1.0) / 2.0, 1e-6);
  EXPECT_NEAR(result.grad_logits.at(0, 1), 0.5 / 2.0, 1e-6);
  EXPECT_NEAR(result.grad_logits.at(1, 1), (0.5 - 1.0) / 2.0, 1e-6);
}

TEST(SoftmaxCrossEntropy, GradMatchesFiniteDifference) {
  Rng rng(1);
  Tensor logits = random_tensor({3, 4}, rng);
  const std::vector<int> labels = {1, 3, 0};
  const LossResult analytic = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor up = logits, down = logits;
    up[i] += eps;
    down[i] -= eps;
    const double numeric = (softmax_cross_entropy_loss(up, labels) -
                            softmax_cross_entropy_loss(down, labels)) /
                           (2.0 * eps);
    EXPECT_NEAR(analytic.grad_logits[i], numeric, 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  Tensor logits({1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {-1}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::invalid_argument);
}

TEST(PredictClasses, ReturnsArgmaxPerRow) {
  Tensor logits({2, 3}, {1, 5, 2, 7, 0, 3});
  const std::vector<int> preds = predict_classes(logits);
  EXPECT_EQ(preds, (std::vector<int>{1, 0}));
}

// ----------------------------------------------------------- Sequential ----

TEST(Sequential, ForwardThroughStack) {
  Rng rng(2);
  Sequential model = make_tiny_mlp();
  model.init_params(rng);
  Tensor out = model.forward(random_tensor({5, 4}, rng), false);
  EXPECT_EQ(out.shape(), (Shape{5, 3}));
}

TEST(Sequential, EmptyModelThrows) {
  Sequential model;
  Tensor input({1, 1});
  EXPECT_THROW(model.forward(input, false), std::logic_error);
  EXPECT_THROW(model.backward(input), std::logic_error);
}

// Sequential::backward stops at the first trainable layer (Dense after a
// Flatten, Conv2D, Embedding) and asks it for parameter gradients only; a
// full backward through every layer must leave the same gradient bits.
TEST(Sequential, BackwardStopsAtFirstTrainableLayerWithSameGradients) {
  struct Case {
    const char* name;
    ModelFactory factory;
    Shape input;
  };
  const Case cases[] = {
      {"mlp", sim::make_mlp_factory(12, 6, 3), {4, 3, 4}},
      {"cnn", sim::make_cnn_factory(1, 8, 2, 3, 5, 3), {2, 1, 8, 8}},
      {"lstm", sim::make_lstm_factory(7, 4, 5, 7), {3, 6}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(31);
    Tensor input(c.input);
    for (auto& v : input.data()) {
      v = c.input.size() == 2 ? static_cast<float>(rng.index(7))
                              : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    Sequential stopped = c.factory(), full = c.factory();
    Rng init_a(5), init_b(5);
    stopped.init_params(init_a);
    full.init_params(init_b);
    const Tensor out = stopped.forward(input, true);
    full.forward(input, true);
    Tensor grad(out.shape());
    for (auto& v : grad.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    stopped.backward(grad);
    Tensor g = grad;
    for (std::size_t i = full.num_layers(); i-- > 0;) g = full.layer(i).backward(g);
    const std::vector<Param> a = stopped.params(), b = full.params();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].grad->numel(), b[i].grad->numel());
      EXPECT_EQ(std::memcmp(a[i].grad->raw(), b[i].grad->raw(), a[i].grad->numel() * 4), 0)
          << a[i].name;
    }
  }
}

TEST(Sequential, NumWeightsMatchesLayers) {
  Sequential model = make_tiny_mlp();
  // Dense(4,8): 4*8+8 = 40; Dense(8,3): 8*3+3 = 27.
  EXPECT_EQ(model.num_weights(), 67u);
}

TEST(Sequential, WeightsRoundTrip) {
  Rng rng(3);
  Sequential model = make_tiny_mlp();
  model.init_params(rng);
  const WeightVector w = model.get_weights();
  EXPECT_EQ(w.size(), model.num_weights());

  Sequential clone = make_tiny_mlp();
  clone.set_weights(w);
  Tensor input = random_tensor({2, 4}, rng);
  const Tensor a = model.forward(input, false);
  const Tensor b = clone.forward(input, false);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(Sequential, SetWeightsRejectsWrongLength) {
  Sequential model = make_tiny_mlp();
  EXPECT_THROW(model.set_weights(WeightVector(10)), std::invalid_argument);
  EXPECT_THROW(model.set_weights(WeightVector(1000)), std::invalid_argument);
}

TEST(Sequential, ZeroGradsClears) {
  Rng rng(4);
  Sequential model = make_tiny_mlp();
  model.init_params(rng);
  Tensor input = random_tensor({2, 4}, rng);
  Tensor out = model.forward(input, true);
  model.backward(out);
  model.zero_grads();
  for (auto& p : model.params()) {
    for (float g : p.grad->data()) EXPECT_FLOAT_EQ(g, 0.0f);
  }
}

// ----------------------------------------------------- weight averaging ----

TEST(AverageWeights, PairAverage) {
  const WeightVector a = {0.0f, 2.0f};
  const WeightVector b = {2.0f, 4.0f};
  const WeightVector avg = average_weights(a, b);
  EXPECT_FLOAT_EQ(avg[0], 1.0f);
  EXPECT_FLOAT_EQ(avg[1], 3.0f);
}

TEST(AverageWeights, SingleInputIsIdentity) {
  const WeightVector a = {1.0f, -1.0f};
  const WeightVector avg = average_weights({&a});
  EXPECT_EQ(avg, a);
}

TEST(AverageWeights, LengthMismatchThrows) {
  const WeightVector a = {1.0f};
  const WeightVector b = {1.0f, 2.0f};
  EXPECT_THROW(average_weights(a, b), std::invalid_argument);
  EXPECT_THROW(average_weights({}), std::invalid_argument);
}

TEST(WeightedAverage, RespectsCoefficients) {
  const WeightVector a = {0.0f};
  const WeightVector b = {10.0f};
  const WeightVector avg = weighted_average_weights({&a, &b}, {1.0, 3.0});
  EXPECT_FLOAT_EQ(avg[0], 7.5f);
}

TEST(WeightedAverage, RejectsBadCoefficients) {
  const WeightVector a = {0.0f};
  EXPECT_THROW(weighted_average_weights({&a}, {-1.0}), std::invalid_argument);
  EXPECT_THROW(weighted_average_weights({&a}, {0.0}), std::invalid_argument);
  EXPECT_THROW(weighted_average_weights({&a}, {1.0, 2.0}), std::invalid_argument);
}

// The original formula: an n-element double accumulator, zeroed, swept once
// per input with a non-zero share, then narrowed to float.
WeightVector three_pass_average(const std::vector<const WeightVector*>& weights,
                                const std::vector<double>& coefficients) {
  double total = 0.0;
  for (double c : coefficients) total += c;
  const std::size_t n = weights.front()->size();
  std::vector<double> acc(n, 0.0);
  for (std::size_t w = 0; w < weights.size(); ++w) {
    const double coeff = coefficients[w] / total;
    if (coeff == 0.0) continue;
    for (std::size_t i = 0; i < n; ++i) acc[i] += coeff * static_cast<double>((*weights[w])[i]);
  }
  WeightVector out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<float>(acc[i]);
  return out;
}

TEST(WeightedAverage, MatchesTheThreePassFormulaBitForBit) {
  Rng rng(11);
  const auto random_vector = [&](std::size_t n) {
    WeightVector v(n);
    for (float& x : v) x = static_cast<float>(rng.normal(0.0, 3.0));
    return v;
  };
  // Odd lengths: around the implementation's 256-element blocks, and one
  // past the 8,554 weights of the scale-2k MLP.
  for (std::size_t n : {std::size_t{1}, std::size_t{255}, std::size_t{257}, std::size_t{8555}}) {
    SCOPED_TRACE(n);
    const WeightVector a = random_vector(n), b = random_vector(n), c = random_vector(n);
    const std::vector<std::pair<std::vector<const WeightVector*>, std::vector<double>>> cases = {
        {{&a, &b}, {1.0, 1.0}},
        {{&a, &b}, {0.3, 1.9}},
        {{&a, &b, &c}, {1.0, 1.0, 1.0}},
        {{&a, &b, &c}, {2.5, 0.0, 0.7}},  // a zero share skips b
        {{&a, &b, &c}, {0.0, 0.0, 4.0}},
    };
    for (const auto& [inputs, coefficients] : cases) {
      const WeightVector got = weighted_average_weights(inputs, coefficients);
      const WeightVector want = three_pass_average(inputs, coefficients);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0);
    }
  }
  const WeightVector x = random_vector(301), y = random_vector(301);
  const WeightVector pair = average_weights(x, y);
  const WeightVector want = three_pass_average({&x, &y}, {1.0, 1.0});
  EXPECT_EQ(std::memcmp(pair.data(), want.data(), pair.size() * sizeof(float)), 0);
}

TEST(WeightDistance, EuclideanAndMismatch) {
  const WeightVector a = {0.0f, 0.0f};
  const WeightVector b = {3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(weight_distance(a, b), 5.0);
  const WeightVector c = {1.0f};
  EXPECT_THROW(weight_distance(a, c), std::invalid_argument);
}

// ------------------------------------------------------------ optimizer ----

TEST(Sgd, StepMovesAgainstGradientAndZeroes) {
  Sequential model;
  model.add<Dense>(1, 1);
  auto params = model.params();
  params[0].value->data() = {1.0f};
  params[0].grad->data() = {0.5f};
  params[1].value->data() = {0.0f};
  params[1].grad->data() = {1.0f};
  Sgd sgd(0.1);
  sgd.step(model);
  params = model.params();
  EXPECT_FLOAT_EQ(params[0].value->data()[0], 0.95f);
  EXPECT_FLOAT_EQ(params[1].value->data()[0], -0.1f);
  EXPECT_FLOAT_EQ(params[0].grad->data()[0], 0.0f);
}

TEST(Sgd, RejectsNonPositiveLearningRate) {
  EXPECT_THROW(Sgd(0.0), std::invalid_argument);
  EXPECT_THROW(Sgd(-0.1), std::invalid_argument);
}

TEST(ProximalSgd, PullsTowardsGlobalWeights) {
  Sequential model;
  model.add<Dense>(1, 1);
  auto params = model.params();
  params[0].value->data() = {2.0f};  // weight far from global
  params[0].grad->data() = {0.0f};   // no data gradient
  params[1].value->data() = {0.0f};
  params[1].grad->data() = {0.0f};
  const WeightVector global = {0.0f, 0.0f};
  ProximalSgd prox(0.1, 1.0, global);
  prox.step(model);
  // w -= lr * mu * (w - w_global) = 2 - 0.1 * 2 = 1.8
  EXPECT_FLOAT_EQ(model.params()[0].value->data()[0], 1.8f);
}

TEST(ProximalSgd, MuZeroEqualsPlainSgd) {
  Rng rng(5);
  Sequential a = make_tiny_mlp(), b = make_tiny_mlp();
  a.init_params(rng);
  b.set_weights(a.get_weights());
  Tensor input = random_tensor({2, 4}, rng);

  Tensor out_a = a.forward(input, true);
  a.backward(out_a);
  Sgd sgd(0.05);
  sgd.step(a);

  Tensor out_b = b.forward(input, true);
  b.backward(out_b);
  ProximalSgd prox(0.05, 0.0, b.get_weights());
  prox.step(b);

  const WeightVector wa = a.get_weights(), wb = b.get_weights();
  for (std::size_t i = 0; i < wa.size(); ++i) EXPECT_NEAR(wa[i], wb[i], 1e-6);
}

TEST(ProximalSgd, RejectsBadConfig) {
  EXPECT_THROW(ProximalSgd(0.1, -1.0, {}), std::invalid_argument);
  Sequential model = make_tiny_mlp();
  ProximalSgd wrong_size(0.1, 1.0, WeightVector(3));
  EXPECT_THROW(wrong_size.step(model), std::invalid_argument);
}

// --------------------------------------------------- end-to-end training ----

TEST(Training, TinyMlpLearnsLinearlySeparableData) {
  Rng rng(6);
  Sequential model = make_tiny_mlp();
  model.init_params(rng);
  Sgd sgd(0.1);

  // Class = argmax over 3 fixed directions; 4-d inputs.
  auto label_of = [](const Tensor& x, std::size_t row) {
    const float a = x.at(row, 0) + x.at(row, 1);
    const float b = x.at(row, 2) + x.at(row, 3);
    if (a > 0.5f && a > b) return 0;
    return b > 0.3f ? 1 : 2;
  };

  double last_loss = 0.0;
  for (int step = 0; step < 300; ++step) {
    Tensor batch = random_tensor({16, 4}, rng);
    std::vector<int> labels;
    for (std::size_t r = 0; r < 16; ++r) labels.push_back(label_of(batch, r));
    Tensor logits = model.forward(batch, true);
    LossResult loss = softmax_cross_entropy(logits, labels);
    model.backward(loss.grad_logits);
    sgd.step(model);
    last_loss = loss.loss;
  }
  EXPECT_LT(last_loss, 0.5);

  // Held-out accuracy well above chance (1/3).
  Tensor test = random_tensor({200, 4}, rng);
  std::vector<int> labels;
  for (std::size_t r = 0; r < 200; ++r) labels.push_back(label_of(test, r));
  const std::vector<int> predicted = predict_classes(model.forward(test, false));
  std::size_t correct = 0;
  for (std::size_t r = 0; r < labels.size(); ++r) correct += predicted[r] == labels[r];
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(labels.size()), 0.75);
}

}  // namespace
}  // namespace specdag::nn
