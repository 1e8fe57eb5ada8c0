// Struct-of-arrays batch executor: trains K same-architecture models
// ("lanes") with one forward / backward / SGD pass over each layer op
// instead of K separate `Sequential` walks. It only trains: evaluation
// (walk steps and the publish gate alike) runs on a scalar `Sequential`,
// where fusing measured no faster.
//
// Every client in a run shares one `ModelFactory`, so per-client training is
// K identical layer graphs over different weight vectors. The executor
// stores each parameter as a [lanes x numel] block (lane-major), keeps one
// activation/grad block per layer boundary, and fuses the element-wise ops
// (SGD step, ReLU) across the whole block via the runtime-dispatched SIMD
// kernels in tensor/lanes.hpp. Matrix products run per lane with the exact
// scalar kernels.
//
// Bit-identity contract: for any lane count, lane l's results (logits,
// losses, gradients, stepped weights) are bit-for-bit what a scalar
// `Sequential` + `Sgd` would produce for that model alone. Fusion only
// happens ACROSS lanes (independent computations); each lane's reduction
// orders are untouched. Tests pin this per layer and end-to-end.
//
// Supported layers: Dense, ReLU, Tanh, Sigmoid, Flatten, Conv2D, MaxPool2D
// (everything the bundled MLP/CNN factories emit). Architectures using other
// layers (LSTM, Embedding) report `supported() == false` and callers fall
// back to the scalar path.
#pragma once

#include <memory>
#include <vector>

#include "nn/model.hpp"

namespace specdag::nn {

namespace soa {
class BatchedLayer;
struct Block;
}  // namespace soa

class BatchExecutor {
 public:
  // Builds the SoA layer stack from one template model. If the architecture
  // contains an unsupported layer the executor is inert (`supported()` is
  // false) and every other method throws.
  explicit BatchExecutor(const ModelFactory& factory);
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  static bool architecture_supported(const ModelFactory& factory);

  bool supported() const { return supported_; }
  std::size_t num_weights() const { return num_weights_; }
  std::size_t lanes() const { return lanes_; }

  // Sets the active lane count, (re)allocating SoA storage as needed and
  // zeroing all gradients. Must be called before load_weights/forward.
  void begin(std::size_t lanes);

  void load_weights(std::size_t lane, const WeightVector& weights);
  WeightVector weights(std::size_t lane) const;
  // Current accumulated gradients of one lane (same flat layout as weights);
  // used by the gradcheck tests.
  WeightVector gradients(std::size_t lane) const;

  // Forward with one input per lane (all the same shape), caching the
  // activations backward() needs. The input tensors must outlive the
  // matching backward() call.
  void forward(const std::vector<const Tensor*>& inputs);

  // Replicates nn::softmax_cross_entropy for one lane: returns the mean loss
  // and seeds that lane's backward gradient with d(loss)/d(logits).
  double loss_and_grad(std::size_t lane, const std::vector<int>& labels);

  // Backpropagates every lane's seeded logit gradient, accumulating into the
  // SoA gradient blocks. Requires a preceding forward().
  void backward();

  // Fused `w -= lr * g; g = 0` over every parameter block. The first
  // `freeze_prefix_params` parameters (in layer order, matching
  // TrainConfig::freeze_prefix_params) have their gradients zeroed first, so
  // their weights pass through unchanged — exactly the scalar behaviour.
  void sgd_step(float lr, std::size_t freeze_prefix_params = 0);

 private:
  void require_supported() const;

  bool supported_ = false;
  std::size_t num_weights_ = 0;
  std::size_t lanes_ = 0;
  std::size_t logit_rows_ = 0;
  std::size_t logit_cols_ = 0;

  std::vector<std::unique_ptr<soa::BatchedLayer>> layers_;
  std::unique_ptr<soa::Block> input_;      // lane views over caller tensors
  std::unique_ptr<soa::Block> seed_;       // d(loss)/d(logits), lane-major
  const soa::Block* logits_blk_ = nullptr;
};

}  // namespace specdag::nn
