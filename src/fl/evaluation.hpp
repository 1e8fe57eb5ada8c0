// Model evaluation on client-local data. Central to the whole system: the
// accuracy-biased tip selection evaluates candidate models on local *test*
// data at every walk step, and the publish gate compares trained models
// against the consensus reference the same way.
#pragma once

#include "data/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"

namespace specdag::fl {

struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
  std::size_t num_examples = 0;
};

// Evaluates `model` (with its current weights) on (x, y). Processes the data
// in chunks of `chunk` examples to bound peak memory.
EvalResult evaluate_model(nn::Sequential& model, const std::vector<float>& x,
                          const std::vector<int>& y, const Shape& element_shape,
                          std::size_t chunk = 64);

// Loads `weights` into `model` and evaluates on the client's test partition.
EvalResult evaluate_weights_on_test(nn::Sequential& model, const nn::WeightVector& weights,
                                    const data::ClientData& client);

// Flipped-prediction rate (Figure 12): among the client's test samples
// labeled `class_a` or `class_b`, the fraction predicted as the respective
// other class. Returns 0 when the client holds no samples of either class.
double flip_rate(nn::Sequential& model, const nn::WeightVector& weights,
                 const data::ClientData& client, int class_a, int class_b);

}  // namespace specdag::fl
