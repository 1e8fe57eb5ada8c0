// Model evaluation on client-local data. Central to the whole system: the
// accuracy-biased tip selection evaluates candidate models on local *test*
// data at every walk step, and the publish gate compares trained models
// against the consensus reference the same way.
//
// Every evaluation has one inference path: Sequential::infer, which reads
// the weight vector in place (no set_weights copy) and writes each layer's
// output into scratch kept on the replica, fed from a per-thread input
// tensor the test samples are copied into. So the model's own parameters
// are never what is evaluated, and an evaluation leaves no weights loaded
// for the next user of the replica to rely on (see nn::LeasePool). The walk
// asks for accuracy only and skips the loss; on an MLP a warmed-up walk
// step allocates nothing.
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

// Evaluates `weights` on (x, y) through `model`'s architecture. Processes
// the data in chunks of `chunk` examples to bound peak memory.
EvalResult evaluate_model(nn::Sequential& model, const nn::WeightVector& weights,
                          const std::vector<float>& x, const std::vector<int>& y,
                          const Shape& element_shape, std::size_t chunk = 64);

// Evaluates `weights` on the client's test partition: accuracy and loss
// (the publish gate's inputs).
EvalResult evaluate_weights_on_test(nn::Sequential& model, const nn::WeightVector& weights,
                                    const data::ClientData& client);

// Accuracy of `weights` on the client's test partition, without the loss:
// the accuracy-biased walk's per-step evaluation. Equals
// evaluate_weights_on_test(...).accuracy.
double accuracy_on_test(nn::Sequential& model, const nn::WeightVector& weights,
                        const data::ClientData& client);

// Flipped-prediction rate (Figure 12): among the client's test samples
// labeled `class_a` or `class_b`, the fraction predicted as the respective
// other class. Returns 0 when the client holds no samples of either class.
double flip_rate(nn::Sequential& model, const nn::WeightVector& weights,
                 const data::ClientData& client, int class_a, int class_b);

}  // namespace specdag::fl
