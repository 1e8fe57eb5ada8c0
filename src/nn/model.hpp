// Sequential model: an owned stack of layers with whole-model weight
// (de)serialization. Model weights travel through the DAG as flat
// std::vector<float> payloads, so get_weights/set_weights define the wire
// format of the whole system.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace specdag::nn {

// Flat serialized parameter vector (the DAG transaction payload type).
using WeightVector = std::vector<float>;

class Sequential {
 public:
  Sequential() = default;

  // Non-copyable (layers own caches); movable.
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void add_layer(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  Tensor forward(const Tensor& input, bool train);

  // Backpropagates dL/d(output) through all layers, accumulating gradients.
  void backward(const Tensor& grad_output);

  // All trainable parameters across layers, in layer order.
  std::vector<Param> params();

  // Number of trainable scalars.
  std::size_t num_weights();

  void init_params(Rng& rng);
  void zero_grads();

  WeightVector get_weights();
  void set_weights(const WeightVector& weights);

  // Inference with `weights`: the logits forward(input, false) would give
  // after set_weights(weights), bit for bit, whatever weights the model
  // held. Each layer reads its slice through Layer::infer into an output
  // kept on the model, so the returned reference stays valid until the next
  // call, and an MLP allocates nothing once the scratch has grown. Throws
  // like set_weights on a weight vector that is too short or too long.
  const Tensor& infer(const WeightVector& weights, const Tensor& input);

 private:
  std::vector<LayerPtr> layers_;
  // infer()'s per-layer parameter counts (built on first use, rebuilt if
  // layers were added since) and per-layer outputs.
  std::vector<std::size_t> layer_weights_;
  std::size_t total_weights_ = 0;
  std::vector<Tensor> infer_out_;
};

// Constructs a fresh, architecture-identical model; every experiment defines
// one of these. DAG clients lease replicas built with it from a shared
// nn::ReplicaPool; the FL baselines build one scratch replica each.
using ModelFactory = std::function<Sequential()>;

// Elementwise average of weight vectors (all must be the same length).
WeightVector average_weights(const std::vector<const WeightVector*>& weights);
WeightVector average_weights(const WeightVector& a, const WeightVector& b);

// Weighted average with non-negative coefficients (FedAvg aggregation by
// client sample counts). Coefficients are normalized internally.
WeightVector weighted_average_weights(const std::vector<const WeightVector*>& weights,
                                      const std::vector<double>& coefficients);

// Euclidean distance between two weight vectors (used by tests and the
// cluster-distance diagnostics).
double weight_distance(const WeightVector& a, const WeightVector& b);

}  // namespace specdag::nn
