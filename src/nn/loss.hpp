// Softmax cross-entropy loss with fused gradient, plus classification
// accuracy helpers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace specdag::nn {

struct LossResult {
  double loss = 0.0;     // mean over the batch
  Tensor grad_logits;    // dL/dlogits, already divided by batch size
};

// logits [batch, classes], labels in [0, classes).
LossResult softmax_cross_entropy(const Tensor& logits, const std::vector<int>& labels);

// Mean loss only (no gradient) — used during evaluation.
double softmax_cross_entropy_loss(const Tensor& logits, std::span<const int> labels);

// Row-wise softmax probabilities.
Tensor softmax(const Tensor& logits);

// argmax of row `r` of logits [batch, classes]: the first maximum.
int predict_class(const Tensor& logits, std::size_t r);

// argmax per row.
std::vector<int> predict_classes(const Tensor& logits);

}  // namespace specdag::nn
