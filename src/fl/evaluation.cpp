#include "fl/evaluation.hpp"

#include <algorithm>
#include <stdexcept>

namespace specdag::fl {

EvalResult evaluate_model(nn::Sequential& model, const std::vector<float>& x,
                          const std::vector<int>& y, const Shape& element_shape,
                          std::size_t chunk) {
  if (y.empty()) throw std::invalid_argument("evaluate_model: empty dataset");
  if (chunk == 0) throw std::invalid_argument("evaluate_model: zero chunk");
  EvalResult result;
  result.num_examples = y.size();
  double loss_sum = 0.0;
  std::size_t correct = 0;
  for (std::size_t begin = 0; begin < y.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, y.size());
    std::vector<std::size_t> indices(end - begin);
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = begin + i;
    data::Batch batch = data::gather_batch(x, y, element_shape, indices);
    const Tensor logits = model.forward(batch.inputs, /*train=*/false);
    loss_sum += nn::softmax_cross_entropy_loss(logits, batch.labels) *
                static_cast<double>(batch.labels.size());
    const std::vector<int> preds = nn::predict_classes(logits);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == batch.labels[i]) ++correct;
    }
  }
  result.loss = loss_sum / static_cast<double>(y.size());
  result.accuracy = static_cast<double>(correct) / static_cast<double>(y.size());
  return result;
}

EvalResult evaluate_weights_on_test(nn::Sequential& model, const nn::WeightVector& weights,
                                    const data::ClientData& client) {
  if (client.num_test() == 0) {
    throw std::invalid_argument("evaluate_weights_on_test: client has no test data");
  }
  model.set_weights(weights);
  return evaluate_model(model, client.test_x, client.test_y, client.element_shape);
}

double flip_rate(nn::Sequential& model, const nn::WeightVector& weights,
                 const data::ClientData& client, int class_a, int class_b) {
  if (class_a == class_b) throw std::invalid_argument("flip_rate: identical classes");
  if (client.num_test() == 0) return 0.0;
  model.set_weights(weights);
  const data::Batch batch =
      data::full_batch(client.test_x, client.test_y, client.element_shape);
  const Tensor logits = model.forward(batch.inputs, /*train=*/false);
  const std::vector<int> preds = nn::predict_classes(logits);
  std::size_t in_classes = 0, flipped = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const int label = batch.labels[i];
    if (label != class_a && label != class_b) continue;
    ++in_classes;
    const int other = label == class_a ? class_b : class_a;
    if (preds[i] == other) ++flipped;
  }
  return in_classes == 0 ? 0.0
                         : static_cast<double>(flipped) / static_cast<double>(in_classes);
}

}  // namespace specdag::fl
