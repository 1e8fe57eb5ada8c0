// The one inference path: Sequential::infer reads a weight vector in place,
// and every evaluation (the walk's accuracy, the gate's accuracy and loss,
// the flip rate) goes through it. Held here against the path it replaced —
// set_weights, then forward(input, false) — bit for bit, for every model
// factory in sim/models.cpp, and checked to allocate nothing once warm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#include "data/poets.hpp"
#include "data/synthetic_digits.hpp"
#include "fl/evaluation.hpp"
#include "nn/lease_pool.hpp"
#include "sim/models.hpp"

// ------------------------------------------------------ allocation count ---
//
// A replaced global operator new that counts the allocations of the thread
// that armed it and no other (the exact-count idea: a warm evaluation must
// make zero). The array and nothrow forms forward here; delete frees.

namespace {
thread_local bool g_count_allocations = false;
thread_local std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace specdag {
namespace {

// Allocations `fn` makes on this thread.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  g_allocations = 0;
  g_count_allocations = true;
  fn();
  g_count_allocations = false;
  return g_allocations;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

nn::WeightVector initial_weights(const nn::ModelFactory& factory, std::uint64_t seed) {
  nn::Sequential model = factory();
  Rng rng(seed);
  model.init_params(rng);
  return model.get_weights();
}

// The replaced evaluation path: load the weights, then a plain forward.
Tensor forward_with(const nn::ModelFactory& factory, const nn::WeightVector& weights,
                    const Tensor& input) {
  nn::Sequential model = factory();
  model.set_weights(weights);
  return model.forward(input, /*train=*/false);
}

Tensor uniform_input(Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

Tensor token_input(std::size_t batch, std::size_t seq, std::size_t vocab, std::uint64_t seed) {
  Tensor t({batch, seq});
  Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.index(vocab));
  return t;
}

struct FactoryCase {
  const char* name;
  nn::ModelFactory factory;
  Tensor input;
};

// Every factory of sim/models.cpp, the paper-scale ones included, on a
// batch of three.
std::vector<FactoryCase> factory_cases() {
  std::vector<FactoryCase> cases;
  cases.push_back({"logreg", sim::make_logreg_factory(20, 5), uniform_input({3, 20}, 1)});
  cases.push_back({"mlp", sim::make_mlp_factory(256, 32, 10), uniform_input({3, 1, 16, 16}, 2)});
  cases.push_back(
      {"cnn", sim::make_cnn_factory(1, 8, 3, 4, 16, 10), uniform_input({3, 1, 8, 8}, 3)});
  cases.push_back({"cifar_cnn", sim::make_cifar_cnn_factory(3, 8, 2, 3, 4, 8, 6, 7),
                   uniform_input({3, 3, 8, 8}, 4)});
  cases.push_back({"lstm", sim::make_lstm_factory(12, 4, 8, 12), token_input(3, 6, 12, 5)});
  cases.push_back(
      {"femnist_cnn_paper", sim::make_femnist_cnn_paper(), uniform_input({3, 1, 28, 28}, 6)});
  cases.push_back(
      {"cifar_cnn_paper", sim::make_cifar_cnn_paper(), uniform_input({3, 3, 32, 32}, 7)});
  cases.push_back({"poets_lstm_paper", sim::make_poets_lstm_paper(24), token_input(3, 10, 24, 8)});
  return cases;
}

TEST(Inference, EveryModelFactoryMatchesSetWeightsThenForward) {
  for (const FactoryCase& c : factory_cases()) {
    SCOPED_TRACE(c.name);
    const nn::WeightVector w = initial_weights(c.factory, 11);
    const nn::WeightVector other = initial_weights(c.factory, 12);
    const Tensor want = forward_with(c.factory, w, c.input);

    // A replica holding other weights (as a leased one may) infers `w`, ...
    nn::Sequential replica = c.factory();
    replica.set_weights(other);
    EXPECT_TRUE(same_bits(replica.infer(w, c.input), want));
    // ... and again after its scratch served another weight vector and a
    // training forward ran on it.
    (void)replica.infer(other, c.input);
    (void)replica.forward(c.input, /*train=*/true);
    EXPECT_TRUE(same_bits(replica.infer(w, c.input), want));
  }
}

TEST(Inference, RejectsWeightVectorsOfTheWrongLength) {
  const nn::ModelFactory factory = sim::make_mlp_factory(256, 32, 10);
  nn::Sequential model = factory();
  const Tensor input = uniform_input({2, 1, 16, 16}, 9);
  nn::WeightVector w = initial_weights(factory, 13);
  w.pop_back();
  EXPECT_THROW((void)model.infer(w, input), std::invalid_argument);
  w.push_back(0.0f);
  w.push_back(0.0f);
  EXPECT_THROW((void)model.infer(w, input), std::invalid_argument);
  EXPECT_THROW((void)nn::Sequential().infer(w, input), std::logic_error);
}

// The replaced evaluate_weights_on_test: set_weights, then forward(false)
// over 64-sample chunks with the softmax loss and argmax accuracy.
fl::EvalResult evaluate_by_forward(const nn::ModelFactory& factory,
                                   const nn::WeightVector& weights,
                                   const data::ClientData& client) {
  nn::Sequential model = factory();
  model.set_weights(weights);
  const std::vector<int>& y = client.test_y;
  double loss_sum = 0.0;
  std::size_t correct = 0;
  for (std::size_t begin = 0; begin < y.size(); begin += 64) {
    std::vector<std::size_t> indices(std::min<std::size_t>(64, y.size() - begin));
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = begin + i;
    const data::Batch batch =
        data::gather_batch(client.test_x, y, client.element_shape, indices);
    const Tensor logits = model.forward(batch.inputs, /*train=*/false);
    loss_sum += nn::softmax_cross_entropy_loss(logits, batch.labels) *
                static_cast<double>(batch.labels.size());
    const std::vector<int> preds = nn::predict_classes(logits);
    for (std::size_t i = 0; i < preds.size(); ++i) correct += preds[i] == batch.labels[i];
  }
  fl::EvalResult result;
  result.num_examples = y.size();
  result.loss = loss_sum / static_cast<double>(y.size());
  result.accuracy = static_cast<double>(correct) / static_cast<double>(y.size());
  return result;
}

void expect_evaluations_match_forward_path(const nn::ModelFactory& factory,
                                           const data::FederatedDataset& ds) {
  nn::Sequential replica = factory();
  replica.set_weights(initial_weights(factory, 21));
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(testing::Message() << "client " << i);
    const data::ClientData& client = ds.clients[i];
    ASSERT_GT(client.num_test(), 64u) << "the chunking goes untested";
    const nn::WeightVector w = initial_weights(factory, 22 + i);
    const fl::EvalResult want = evaluate_by_forward(factory, w, client);
    const fl::EvalResult got = fl::evaluate_weights_on_test(replica, w, client);
    EXPECT_EQ(std::memcmp(&got.loss, &want.loss, sizeof(double)), 0)
        << got.loss << " vs " << want.loss;
    EXPECT_EQ(got.accuracy, want.accuracy);
    EXPECT_EQ(got.num_examples, want.num_examples);
    EXPECT_EQ(fl::accuracy_on_test(replica, w, client), want.accuracy);
  }
}

data::FederatedDataset digits(std::size_t image_size) {
  data::SyntheticDigitsConfig config;
  config.num_clients = 2;
  config.samples_per_client = 700;  // 70 test samples: two chunks
  config.image_size = image_size;
  return data::make_fmnist_clustered(config);
}

TEST(Inference, EvaluationEqualsTheSetWeightsForwardPathMlp) {
  const data::FederatedDataset ds = digits(16);
  expect_evaluations_match_forward_path(
      sim::make_mlp_factory(shape_numel(ds.element_shape), 32, ds.num_classes), ds);
}

TEST(Inference, EvaluationEqualsTheSetWeightsForwardPathCnn) {
  const data::FederatedDataset ds = digits(8);
  expect_evaluations_match_forward_path(sim::make_cnn_factory(1, 8, 3, 4, 16, ds.num_classes),
                                        ds);
}

TEST(Inference, EvaluationEqualsTheSetWeightsForwardPathLstm) {
  data::PoetsConfig config;
  config.num_clients = 2;
  config.samples_per_client = 700;
  const data::FederatedDataset ds = data::make_poets(config);
  expect_evaluations_match_forward_path(
      sim::make_lstm_factory(config.vocab_size, 4, 8, ds.num_classes), ds);
}

TEST(Inference, FlipRateEqualsTheSetWeightsForwardPath) {
  const data::FederatedDataset ds = digits(16);
  const nn::ModelFactory factory =
      sim::make_mlp_factory(shape_numel(ds.element_shape), 32, ds.num_classes);
  const data::ClientData& client = ds.clients[0];
  const nn::WeightVector w = initial_weights(factory, 31);
  const data::Batch all = data::full_batch(client.test_x, client.test_y, client.element_shape);
  const std::vector<int> preds = nn::predict_classes(forward_with(factory, w, all.inputs));
  nn::Sequential replica = factory();
  for (const auto& [a, b] : {std::pair{0, 1}, std::pair{3, 8}, std::pair{2, 7}}) {
    std::size_t in_classes = 0, flipped = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
      const int label = all.labels[i];
      if (label != a && label != b) continue;
      ++in_classes;
      flipped += preds[i] == (label == a ? b : a);
    }
    ASSERT_GT(in_classes, 0u);
    EXPECT_EQ(fl::flip_rate(replica, w, client, a, b),
              static_cast<double>(flipped) / static_cast<double>(in_classes));
  }
}

// A walk step on the fig15-scalability shape (16x16 images, 80 samples per
// client, 8 of them test; the 256 -> 32 -> 10 MLP), as DagClient makes it:
// lease a replica, then the accuracy-only evaluation. Once warm, it makes
// no allocation at all.
TEST(Inference, WarmWalkStepEvaluationAllocatesNothing) {
  data::SyntheticDigitsConfig config;
  config.num_clients = 2;
  config.samples_per_client = 80;
  config.image_size = 16;
  const data::FederatedDataset ds = data::make_fmnist_by_author(config);
  const nn::ModelFactory factory =
      sim::make_mlp_factory(shape_numel(ds.element_shape), 32, ds.num_classes);
  nn::ReplicaPool replicas = nn::make_replica_pool(factory);
  const nn::WeightVector a = initial_weights(factory, 41);
  const nn::WeightVector b = initial_weights(factory, 42);
  const data::ClientData& client = ds.clients[0];
  ASSERT_EQ(client.num_test(), 8u);
  double accuracy = 0.0;
  const auto walk_step = [&](const nn::WeightVector& w) {
    const nn::ReplicaPool::Lease model = replicas.acquire();
    accuracy += fl::accuracy_on_test(*model, w, client);
  };

  // (A direct call: a new-expression paired with its delete may be elided.)
  ASSERT_EQ(allocations_in([] { ::operator delete(::operator new(16)); }), 1u)
      << "the counter is not armed";
  walk_step(a);  // warm-up: builds the replica and grows the scratch
  EXPECT_EQ(allocations_in([&] {
              walk_step(a);
              walk_step(b);
              walk_step(a);
            }),
            0u);
  EXPECT_GT(accuracy, 0.0);
}

// The same on the poets shape (vocab 24, embedding 8, 24 LSTM units,
// sequences of 10, 15 test samples per client): Embedding and LSTM read
// their weight slices in place too, so a warm walk step allocates nothing.
TEST(Inference, WarmPoetsWalkStepEvaluationAllocatesNothing) {
  data::PoetsConfig config;
  config.num_clients = 2;
  const data::FederatedDataset ds = data::make_poets(config);
  const nn::ModelFactory factory =
      sim::make_lstm_factory(config.vocab_size, 8, 24, config.vocab_size);
  nn::ReplicaPool replicas = nn::make_replica_pool(factory);
  const nn::WeightVector a = initial_weights(factory, 43);
  const nn::WeightVector b = initial_weights(factory, 44);
  const data::ClientData& client = ds.clients[0];
  ASSERT_EQ(client.num_test(), 15u);
  double accuracy = 0.0;
  const auto walk_step = [&](const nn::WeightVector& w) {
    const nn::ReplicaPool::Lease model = replicas.acquire();
    accuracy += fl::accuracy_on_test(*model, w, client);
  };

  ASSERT_EQ(allocations_in([] { ::operator delete(::operator new(16)); }), 1u)
      << "the counter is not armed";
  walk_step(a);  // warm-up: builds the replica and grows the scratch
  EXPECT_EQ(allocations_in([&] {
              walk_step(a);
              walk_step(b);
              walk_step(a);
            }),
            0u);
  EXPECT_GT(accuracy, 0.0);
}

}  // namespace
}  // namespace specdag
