#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/lanes.hpp"

namespace specdag::nn {
namespace {

void check_labels(const Tensor& logits, std::span<const int> labels) {
  if (logits.rank() != 2) throw std::invalid_argument("loss: logits must be [batch, classes]");
  if (logits.dim(0) != labels.size()) {
    throw std::invalid_argument("loss: batch size mismatch");
  }
  const int classes = static_cast<int>(logits.dim(1));
  for (int l : labels) {
    if (l < 0 || l >= classes) throw std::invalid_argument("loss: label out of range");
  }
}

}  // namespace

Tensor softmax(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("softmax: logits must be [batch, classes]");
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  Tensor probs = logits;
  for (std::size_t r = 0; r < batch; ++r) {
    float* row = probs.raw() + r * classes;
    const float mx = *std::max_element(row, row + classes);
    for (std::size_t c = 0; c < classes; ++c) row[c] = row[c] - mx;
    lanes::exp(row, row, classes);
    float sum = 0.0f;
    for (std::size_t c = 0; c < classes; ++c) sum += row[c];
    for (std::size_t c = 0; c < classes; ++c) row[c] /= sum;
  }
  return probs;
}

LossResult softmax_cross_entropy(const Tensor& logits, const std::vector<int>& labels) {
  check_labels(logits, labels);
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  Tensor probs = softmax(logits);
  double total = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    float* row = probs.raw() + r * classes;
    const float p = std::max(row[static_cast<std::size_t>(labels[r])], 1e-12f);
    total -= std::log(p);
    // grad = (softmax - onehot) / batch, computed in place.
    row[static_cast<std::size_t>(labels[r])] -= 1.0f;
    for (std::size_t c = 0; c < classes; ++c) row[c] *= inv_batch;
  }
  return {total / static_cast<double>(batch), std::move(probs)};
}

double softmax_cross_entropy_loss(const Tensor& logits, std::span<const int> labels) {
  check_labels(logits, labels);
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  Tensor probs = softmax(logits);
  double total = 0.0;
  for (std::size_t r = 0; r < batch; ++r) {
    const float p =
        std::max(probs.raw()[r * classes + static_cast<std::size_t>(labels[r])], 1e-12f);
    total -= std::log(p);
  }
  return total / static_cast<double>(batch);
}

int predict_class(const Tensor& logits, std::size_t r) {
  const std::size_t classes = logits.dim(1);
  const float* row = logits.raw() + r * classes;
  return static_cast<int>(std::max_element(row, row + classes) - row);
}

std::vector<int> predict_classes(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("predict_classes: logits must be rank-2");
  std::vector<int> preds(logits.dim(0));
  for (std::size_t r = 0; r < preds.size(); ++r) preds[r] = predict_class(logits, r);
  return preds;
}

}  // namespace specdag::nn
