#include "fl/evaluation.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

namespace specdag::fl {
namespace {

constexpr std::size_t kTestChunk = 64;

// Runs `weights` over the first `count` samples of `x` in chunks of at most
// `chunk`, handing visit() each chunk's logits and the index of its first
// sample. The input tensor is per thread and keeps its capacity.
template <typename Visit>
void infer_chunks(nn::Sequential& model, const nn::WeightVector& weights,
                  const std::vector<float>& x, std::size_t count, const Shape& element_shape,
                  std::size_t chunk, Visit&& visit) {
  thread_local Tensor input;
  const std::size_t elem = shape_numel(element_shape);
  if (x.size() < count * elem) throw std::invalid_argument("evaluation: fewer inputs than labels");
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const std::size_t rows = std::min(chunk, count - begin);
    input.resize_batch(rows, element_shape);
    std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(begin * elem), rows * elem,
                input.raw());
    const Tensor& logits = model.infer(weights, input);
    if (logits.rank() != 2 || logits.dim(0) != rows) {
      throw std::invalid_argument("evaluation: logits must be [batch, classes]");
    }
    visit(logits, begin);
  }
}

void require_test_data(const data::ClientData& client, const char* what) {
  if (client.num_test() == 0) {
    throw std::invalid_argument(std::string(what) + ": client has no test data");
  }
}

}  // namespace

EvalResult evaluate_model(nn::Sequential& model, const nn::WeightVector& weights,
                          const std::vector<float>& x, const std::vector<int>& y,
                          const Shape& element_shape, std::size_t chunk) {
  if (y.empty()) throw std::invalid_argument("evaluate_model: empty dataset");
  if (chunk == 0) throw std::invalid_argument("evaluate_model: zero chunk");
  double loss_sum = 0.0;
  std::size_t correct = 0;
  infer_chunks(model, weights, x, y.size(), element_shape, chunk,
               [&](const Tensor& logits, std::size_t first) {
                 const std::span<const int> labels(y.data() + first, logits.dim(0));
                 loss_sum += nn::softmax_cross_entropy_loss(logits, labels) *
                             static_cast<double>(labels.size());
                 for (std::size_t r = 0; r < labels.size(); ++r) {
                   if (nn::predict_class(logits, r) == labels[r]) ++correct;
                 }
               });
  EvalResult result;
  result.num_examples = y.size();
  result.loss = loss_sum / static_cast<double>(y.size());
  result.accuracy = static_cast<double>(correct) / static_cast<double>(y.size());
  return result;
}

EvalResult evaluate_weights_on_test(nn::Sequential& model, const nn::WeightVector& weights,
                                    const data::ClientData& client) {
  require_test_data(client, "evaluate_weights_on_test");
  return evaluate_model(model, weights, client.test_x, client.test_y, client.element_shape,
                        kTestChunk);
}

double accuracy_on_test(nn::Sequential& model, const nn::WeightVector& weights,
                        const data::ClientData& client) {
  require_test_data(client, "accuracy_on_test");
  const std::vector<int>& y = client.test_y;
  std::size_t correct = 0;
  infer_chunks(model, weights, client.test_x, y.size(), client.element_shape, kTestChunk,
               [&](const Tensor& logits, std::size_t first) {
                 for (std::size_t r = 0; r < logits.dim(0); ++r) {
                   if (nn::predict_class(logits, r) == y[first + r]) ++correct;
                 }
               });
  return static_cast<double>(correct) / static_cast<double>(y.size());
}

double flip_rate(nn::Sequential& model, const nn::WeightVector& weights,
                 const data::ClientData& client, int class_a, int class_b) {
  if (class_a == class_b) throw std::invalid_argument("flip_rate: identical classes");
  const std::vector<int>& y = client.test_y;
  if (y.empty()) return 0.0;
  std::size_t in_classes = 0, flipped = 0;
  // The whole test set as one batch.
  infer_chunks(model, weights, client.test_x, y.size(), client.element_shape, y.size(),
               [&](const Tensor& logits, std::size_t /*first*/) {
                 for (std::size_t i = 0; i < y.size(); ++i) {
                   const int label = y[i];
                   if (label != class_a && label != class_b) continue;
                   ++in_classes;
                   const int other = label == class_a ? class_b : class_a;
                   if (nn::predict_class(logits, i) == other) ++flipped;
                 }
               });
  return in_classes == 0 ? 0.0
                         : static_cast<double>(flipped) / static_cast<double>(in_classes);
}

}  // namespace specdag::fl
