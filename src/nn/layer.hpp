// Layer abstraction: explicit forward/backward with parameter registration.
//
// The library deliberately avoids a general autodiff graph: the paper's
// models are fixed sequential stacks (CNNs and an LSTM), so classic
// layer-wise backprop is simpler and faster. Each layer owns its parameters
// and gradient buffers and exposes them through `params()` so optimizers and
// the federated-averaging code can treat all models uniformly.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace specdag::nn {

// A view of one trainable parameter tensor and its gradient accumulator.
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Computes the layer output for `input`. When `train` is true the layer
  // caches whatever it needs for backward() (e.g. ReLU keeps its input,
  // MaxPool2D its argmax positions).
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  // Given dL/d(output), accumulates parameter gradients and returns
  // dL/d(input). Must be called after a forward() with train == true.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // Inference with the parameters at `weights` — this layer's slice of a
  // flat weight vector, in params() order — instead of the layer's own:
  // writes forward(input, false) into `out`, reusing its storage where the
  // layer can. The default loads the slice into the layer first; Dense,
  // ReLU, Flatten, Embedding and LSTM override it to read the slice in place
  // and allocate nothing once `out` (and the layer's scratch) has grown.
  virtual void infer(const float* weights, const Tensor& input, Tensor& out) {
    for (const Param& p : params()) {
      std::copy(weights, weights + p.value->numel(), p.value->raw());
      weights += p.value->numel();
    }
    out = forward(input, false);
  }

  // Trainable parameters; empty for stateless layers.
  virtual std::vector<Param> params() { return {}; }

  // Re-draws initial parameter values (no-op for stateless layers).
  virtual void init_params(Rng& /*rng*/) {}

  virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace specdag::nn
