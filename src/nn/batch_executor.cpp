#include "nn/batch_executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "tensor/lanes.hpp"
#include "tensor/ops.hpp"

namespace specdag::nn {
namespace soa {

// One SoA value block: `lanes` lane-major owned slices of `stride` floats,
// or per-lane external views into caller/sibling storage.
struct Block {
  std::size_t stride = 0;                  // floats per lane
  std::vector<float> data;                 // owned storage (lane-major)
  std::vector<const float*> ext;           // external views, one per lane

  void own(std::size_t nlanes, std::size_t s) {
    stride = s;
    ext.clear();
    data.resize(nlanes * s);
  }
  void view_lanes(std::vector<const float*> ps, std::size_t s) {
    stride = s;
    data.clear();
    ext = std::move(ps);
  }

  const float* lane(std::size_t l) const {
    return ext.empty() ? data.data() + l * stride : ext[l];
  }
  float* mlane(std::size_t l) { return data.data() + l * stride; }
};

// Batched counterpart of one nn::Layer. Owns its output activations and its
// input-gradient block; parametric layers own lane-major SoA param blocks.
class BatchedLayer {
 public:
  virtual ~BatchedLayer() = default;

  virtual std::size_t param_count() const { return 0; }  // floats per lane
  virtual std::size_t num_params() const { return 0; }   // Param entries (freeze units)
  virtual void set_lanes(std::size_t) {}
  virtual void import_weights(std::size_t, const float*) {}
  virtual void export_weights(std::size_t, float*) const {}
  virtual void export_grads(std::size_t, float*) const {}
  virtual void sgd_step(float, std::size_t, std::size_t) {}

  virtual Shape infer(const Shape& in) const = 0;
  virtual void forward(const Block& in, const Shape& in_shape, std::size_t nlanes) = 0;
  // `need_gin` is false when no parameterized layer sits below this one: the
  // input gradient would be dead, so the layer may skip producing gin().
  virtual void backward(const Block& grad_out, std::size_t nlanes, bool need_gin) = 0;

  Block& out() { return out_; }
  Block& gin() { return gin_; }

 protected:
  Block out_, gin_;
};

namespace {

std::size_t shape_product(const Shape& s) {
  std::size_t n = 1;
  for (std::size_t d : s) n *= d;
  return n;
}

// --------------------------------------------------------------- Dense ---

class BDense final : public BatchedLayer {
 public:
  BDense(std::size_t in, std::size_t out) : din_(in), dout_(out) {}

  std::size_t param_count() const override { return din_ * dout_ + dout_; }
  std::size_t num_params() const override { return 2; }

  void set_lanes(std::size_t nlanes) override {
    w_.resize(nlanes * din_ * dout_);
    b_.resize(nlanes * dout_);
    gw_.assign(nlanes * din_ * dout_, 0.0f);
    gb_.assign(nlanes * dout_, 0.0f);
  }

  void import_weights(std::size_t l, const float* src) override {
    std::memcpy(w_.data() + l * din_ * dout_, src, din_ * dout_ * sizeof(float));
    std::memcpy(b_.data() + l * dout_, src + din_ * dout_, dout_ * sizeof(float));
  }
  void export_weights(std::size_t l, float* dst) const override {
    std::memcpy(dst, w_.data() + l * din_ * dout_, din_ * dout_ * sizeof(float));
    std::memcpy(dst + din_ * dout_, b_.data() + l * dout_, dout_ * sizeof(float));
  }
  void export_grads(std::size_t l, float* dst) const override {
    std::memcpy(dst, gw_.data() + l * din_ * dout_, din_ * dout_ * sizeof(float));
    std::memcpy(dst + din_ * dout_, gb_.data() + l * dout_, dout_ * sizeof(float));
  }

  Shape infer(const Shape& in) const override {
    if (in.size() != 2 || in[1] != din_) {
      throw std::invalid_argument("BatchExecutor: Dense input shape mismatch");
    }
    return {in[0], dout_};
  }

  void forward(const Block& in, const Shape& in_shape, std::size_t nlanes) override {
    batch_ = in_shape[0];
    x_ = &in;
    out_.own(nlanes, batch_ * dout_);
    for (std::size_t l = 0; l < nlanes; ++l) {
      matmul_into(in.lane(l), w_.data() + l * din_ * dout_, out_.mlane(l), batch_, din_, dout_);
      add_row_bias_into(out_.mlane(l), b_.data() + l * dout_, batch_, dout_);
    }
  }

  void backward(const Block& grad_out, std::size_t nlanes, bool need_gin) override {
    if (need_gin) gin_.own(nlanes, batch_ * din_);
    for (std::size_t l = 0; l < nlanes; ++l) {
      const float* g = grad_out.lane(l);
      // Grads start at +0.0 (zeroed by set_lanes / the previous sgd_step),
      // so accumulating straight into the SoA block is bit-identical to the
      // scalar layer's tmp-then-+= sequence.
      matmul_transposed_a_acc(x_->lane(l), g, gw_.data() + l * din_ * dout_, batch_, din_, dout_);
      float* gb = gb_.data() + l * dout_;
      for (std::size_t r = 0; r < batch_; ++r) {
        for (std::size_t c = 0; c < dout_; ++c) gb[c] += g[r * dout_ + c];
      }
      if (need_gin) {
        matmul_transposed_b_into(g, w_.data() + l * din_ * dout_, gin_.mlane(l), batch_, dout_,
                                 din_);
      }
    }
  }

  void sgd_step(float lr, std::size_t freeze, std::size_t /*nlanes*/) override {
    if (freeze >= 1) std::fill(gw_.begin(), gw_.end(), 0.0f);
    if (freeze >= 2) std::fill(gb_.begin(), gb_.end(), 0.0f);
    lanes::sgd_step(w_.data(), gw_.data(), lr, w_.size());
    lanes::sgd_step(b_.data(), gb_.data(), lr, b_.size());
  }

 private:
  std::size_t din_, dout_;
  std::size_t batch_ = 0;
  std::vector<float> w_, b_, gw_, gb_;
  const Block* x_ = nullptr;
};

// --------------------------------------------------- elementwise layers ---

class BRelu final : public BatchedLayer {
 public:
  Shape infer(const Shape& in) const override { return in; }

  void forward(const Block& in, const Shape& in_shape, std::size_t nlanes) override {
    numel_ = shape_product(in_shape);
    x_ = &in;
    out_.own(nlanes, numel_);
    for (std::size_t l = 0; l < nlanes; ++l) {
      lanes::relu_forward(in.lane(l), out_.mlane(l), numel_);
    }
  }

  void backward(const Block& grad_out, std::size_t nlanes, bool need_gin) override {
    if (!need_gin) return;
    gin_.own(nlanes, numel_);
    for (std::size_t l = 0; l < nlanes; ++l) {
      float* g = gin_.mlane(l);
      std::memcpy(g, grad_out.lane(l), numel_ * sizeof(float));
      lanes::relu_backward_mask(x_->lane(l), g, numel_);
    }
  }

 private:
  std::size_t numel_ = 0;
  const Block* x_ = nullptr;  // cached input (the backward mask)
};

class BFlatten final : public BatchedLayer {
 public:
  Shape infer(const Shape& in) const override {
    if (in.size() < 2) throw std::invalid_argument("BatchExecutor: Flatten rank < 2");
    return {in[0], shape_product(in) / in[0]};
  }

  void forward(const Block& in, const Shape& in_shape, std::size_t nlanes) override {
    // Pure reshape: expose views of the input block, no copy.
    std::vector<const float*> views(nlanes);
    for (std::size_t l = 0; l < nlanes; ++l) views[l] = in.lane(l);
    out_.view_lanes(std::move(views), shape_product(in_shape));
  }

  void backward(const Block& grad_out, std::size_t nlanes, bool need_gin) override {
    if (!need_gin) return;
    std::vector<const float*> views(nlanes);
    for (std::size_t l = 0; l < nlanes; ++l) views[l] = grad_out.lane(l);
    gin_.view_lanes(std::move(views), grad_out.stride);
  }
};

// ---------------------------------------------------------------- Conv ---

class BConv final : public BatchedLayer {
 public:
  explicit BConv(const Conv2dSpec& spec)
      : spec_(spec), ckk_(spec.in_channels * spec.kernel * spec.kernel) {}

  std::size_t param_count() const override { return spec_.out_channels * ckk_ + spec_.out_channels; }
  std::size_t num_params() const override { return 2; }

  void set_lanes(std::size_t nlanes) override {
    const std::size_t wn = spec_.out_channels * ckk_;
    w_.resize(nlanes * wn);
    b_.resize(nlanes * spec_.out_channels);
    gw_.assign(nlanes * wn, 0.0f);
    gb_.assign(nlanes * spec_.out_channels, 0.0f);
  }

  void import_weights(std::size_t l, const float* src) override {
    const std::size_t wn = spec_.out_channels * ckk_;
    std::memcpy(w_.data() + l * wn, src, wn * sizeof(float));
    std::memcpy(b_.data() + l * spec_.out_channels, src + wn,
                spec_.out_channels * sizeof(float));
  }
  void export_weights(std::size_t l, float* dst) const override {
    const std::size_t wn = spec_.out_channels * ckk_;
    std::memcpy(dst, w_.data() + l * wn, wn * sizeof(float));
    std::memcpy(dst + wn, b_.data() + l * spec_.out_channels,
                spec_.out_channels * sizeof(float));
  }
  void export_grads(std::size_t l, float* dst) const override {
    const std::size_t wn = spec_.out_channels * ckk_;
    std::memcpy(dst, gw_.data() + l * wn, wn * sizeof(float));
    std::memcpy(dst + wn, gb_.data() + l * spec_.out_channels,
                spec_.out_channels * sizeof(float));
  }

  Shape infer(const Shape& in) const override {
    if (in.size() != 4 || in[1] != spec_.in_channels) {
      throw std::invalid_argument("BatchExecutor: Conv2D input shape mismatch");
    }
    return {in[0], spec_.out_channels, spec_.out_dim(in[2]), spec_.out_dim(in[3])};
  }

  void forward(const Block& in, const Shape& in_shape, std::size_t nlanes) override {
    in_shape_ = in_shape;
    const std::size_t n = in_shape[0], h = in_shape[2], w = in_shape[3];
    const std::size_t oc = spec_.out_channels;
    positions_ = spec_.out_dim(h) * spec_.out_dim(w);
    const std::size_t rows = n * positions_;
    out_.own(nlanes, n * oc * positions_);
    out_cols_.resize(rows * oc);
    // Cache each lane's im2col for backward, exactly like the scalar layer.
    cols_.resize(nlanes * rows * ckk_);
    for (std::size_t l = 0; l < nlanes; ++l) {
      float* cl = cols_.data() + l * rows * ckk_;
      im2col_into(in.lane(l), n, h, w, spec_, cl);
      lane_matmul(cl, l, rows, oc);
    }
  }

  void backward(const Block& grad_out, std::size_t nlanes, bool need_gin) override {
    const std::size_t n = in_shape_[0], h = in_shape_[2], w = in_shape_[3];
    const std::size_t oc = spec_.out_channels;
    const std::size_t rows = n * positions_;
    if (need_gin) gin_.own(nlanes, n * spec_.in_channels * h * w);
    gcols_.resize(rows * oc);
    dcols_.resize(rows * ckk_);
    for (std::size_t l = 0; l < nlanes; ++l) {
      nchw_to_positions(grad_out.lane(l), gcols_.data(), n, oc, positions_);
      matmul_transposed_a_acc(gcols_.data(), cols_.data() + l * rows * ckk_,
                              gw_.data() + l * oc * ckk_, rows, oc, ckk_);
      float* gb = gb_.data() + l * oc;
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < oc; ++c) gb[c] += gcols_[r * oc + c];
      }
      if (need_gin) {
        matmul_into(gcols_.data(), w_.data() + l * oc * ckk_, dcols_.data(), rows, oc, ckk_);
        col2im_into(dcols_.data(), n, h, w, spec_, gin_.mlane(l));
      }
    }
  }

  void sgd_step(float lr, std::size_t freeze, std::size_t /*nlanes*/) override {
    if (freeze >= 1) std::fill(gw_.begin(), gw_.end(), 0.0f);
    if (freeze >= 2) std::fill(gb_.begin(), gb_.end(), 0.0f);
    lanes::sgd_step(w_.data(), gw_.data(), lr, w_.size());
    lanes::sgd_step(b_.data(), gb_.data(), lr, b_.size());
  }

 private:
  void lane_matmul(const float* cols, std::size_t l, std::size_t rows, std::size_t oc) {
    matmul_transposed_b_into(cols, w_.data() + l * oc * ckk_, out_cols_.data(), rows, ckk_,
                             oc);
    add_row_bias_into(out_cols_.data(), b_.data() + l * oc, rows, oc);
    positions_to_nchw(out_cols_.data(), out_.mlane(l), in_shape_[0], oc, positions_);
  }

  Conv2dSpec spec_;
  std::size_t ckk_;
  std::size_t positions_ = 0;
  Shape in_shape_;
  std::vector<float> w_, b_, gw_, gb_;
  std::vector<float> cols_;  // per-lane im2col cache for backward
  std::vector<float> out_cols_, gcols_, dcols_;
};

// ------------------------------------------------------------- MaxPool ---

class BMaxPool final : public BatchedLayer {
 public:
  BMaxPool(std::size_t size, std::size_t stride) : size_(size), stride_(stride) {}

  Shape infer(const Shape& in) const override {
    if (in.size() != 4 || in[2] < size_ || in[3] < size_) {
      throw std::invalid_argument("BatchExecutor: MaxPool2D input shape mismatch");
    }
    return {in[0], in[1], (in[2] - size_) / stride_ + 1, (in[3] - size_) / stride_ + 1};
  }

  void forward(const Block& in, const Shape& in_shape, std::size_t nlanes) override {
    in_shape_ = in_shape;
    const std::size_t n = in_shape[0], c = in_shape[1], h = in_shape[2], w = in_shape[3];
    const std::size_t oh = (h - size_) / stride_ + 1, ow = (w - size_) / stride_ + 1;
    out_numel_ = n * c * oh * ow;
    out_.own(nlanes, out_numel_);
    argmax_.resize(nlanes * out_numel_);
    for (std::size_t l = 0; l < nlanes; ++l) {
      maxpool2d_forward_into(in.lane(l), n, c, h, w, size_, stride_, out_.mlane(l),
                             argmax_.data() + l * out_numel_);
    }
  }

  void backward(const Block& grad_out, std::size_t nlanes, bool need_gin) override {
    if (!need_gin) return;
    const std::size_t in_numel = shape_product(in_shape_);
    gin_.own(nlanes, in_numel);
    for (std::size_t l = 0; l < nlanes; ++l) {
      float* g = gin_.mlane(l);
      std::fill(g, g + in_numel, 0.0f);
      const float* go = grad_out.lane(l);
      const std::size_t* am = argmax_.data() + l * out_numel_;
      for (std::size_t i = 0; i < out_numel_; ++i) g[am[i]] += go[i];
    }
  }

 private:
  std::size_t size_, stride_;
  std::size_t out_numel_ = 0;
  Shape in_shape_;
  std::vector<std::size_t> argmax_;
};

}  // namespace
}  // namespace soa

// ------------------------------------------------------------ executor ---

BatchExecutor::BatchExecutor(const ModelFactory& factory)
    : input_(std::make_unique<soa::Block>()), seed_(std::make_unique<soa::Block>()) {
  Sequential tmpl = factory();
  supported_ = true;
  for (std::size_t i = 0; i < tmpl.num_layers(); ++i) {
    Layer& layer = tmpl.layer(i);
    if (auto* d = dynamic_cast<Dense*>(&layer)) {
      layers_.push_back(std::make_unique<soa::BDense>(d->in_features(), d->out_features()));
    } else if (dynamic_cast<ReLU*>(&layer)) {
      layers_.push_back(std::make_unique<soa::BRelu>());
    } else if (dynamic_cast<Flatten*>(&layer)) {
      layers_.push_back(std::make_unique<soa::BFlatten>());
    } else if (auto* cv = dynamic_cast<Conv2D*>(&layer)) {
      layers_.push_back(std::make_unique<soa::BConv>(cv->spec()));
    } else if (auto* mp = dynamic_cast<MaxPool2D*>(&layer)) {
      layers_.push_back(std::make_unique<soa::BMaxPool>(mp->size(), mp->stride()));
    } else {
      supported_ = false;
      layers_.clear();
      break;
    }
  }
  if (supported_) num_weights_ = tmpl.num_weights();
}

BatchExecutor::~BatchExecutor() = default;

bool BatchExecutor::architecture_supported(const ModelFactory& factory) {
  return BatchExecutor(factory).supported();
}

void BatchExecutor::require_supported() const {
  if (!supported_) {
    throw std::logic_error("BatchExecutor: architecture not supported (use the scalar path)");
  }
}

void BatchExecutor::begin(std::size_t nlanes) {
  require_supported();
  if (nlanes == 0) throw std::invalid_argument("BatchExecutor::begin: zero lanes");
  lanes_ = nlanes;
  for (auto& layer : layers_) layer->set_lanes(nlanes);
  logits_blk_ = nullptr;
}

void BatchExecutor::load_weights(std::size_t lane, const WeightVector& weights) {
  require_supported();
  if (lane >= lanes_) throw std::out_of_range("BatchExecutor::load_weights: lane");
  if (weights.size() != num_weights_) {
    throw std::invalid_argument("BatchExecutor::load_weights: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    layer->import_weights(lane, weights.data() + offset);
    offset += layer->param_count();
  }
}

WeightVector BatchExecutor::weights(std::size_t lane) const {
  require_supported();
  if (lane >= lanes_) throw std::out_of_range("BatchExecutor::weights: lane");
  WeightVector out(num_weights_);
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    layer->export_weights(lane, out.data() + offset);
    offset += layer->param_count();
  }
  return out;
}

WeightVector BatchExecutor::gradients(std::size_t lane) const {
  require_supported();
  if (lane >= lanes_) throw std::out_of_range("BatchExecutor::gradients: lane");
  WeightVector out(num_weights_);
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    layer->export_grads(lane, out.data() + offset);
    offset += layer->param_count();
  }
  return out;
}

void BatchExecutor::forward(const std::vector<const Tensor*>& inputs) {
  require_supported();
  if (lanes_ == 0) throw std::logic_error("BatchExecutor: begin() not called");
  if (inputs.size() != lanes_) {
    throw std::invalid_argument("BatchExecutor::forward: input count != lanes");
  }
  for (const Tensor* t : inputs) {
    if (t == nullptr || t->shape() != inputs[0]->shape()) {
      throw std::invalid_argument("BatchExecutor::forward: lane input shapes differ");
    }
  }
  std::vector<const float*> views(lanes_);
  for (std::size_t l = 0; l < lanes_; ++l) views[l] = inputs[l]->raw();
  input_->view_lanes(std::move(views), inputs[0]->numel());
  Shape shape = inputs[0]->shape();
  const soa::Block* cur = input_.get();
  for (auto& layer : layers_) {
    Shape out_shape = layer->infer(shape);
    layer->forward(*cur, shape, lanes_);
    cur = &layer->out();
    shape = std::move(out_shape);
  }
  if (shape.size() != 2) {
    throw std::logic_error("BatchExecutor: final activations are not [batch, classes]");
  }
  logits_blk_ = cur;
  logit_rows_ = shape[0];
  logit_cols_ = shape[1];
}

namespace {

// Row-wise softmax replicating nn::softmax exactly: first-max subtraction,
// exp/sum interleaved in class order, then one divide pass.
void softmax_rows(float* rows, std::size_t batch, std::size_t classes) {
  for (std::size_t r = 0; r < batch; ++r) {
    float* row = rows + r * classes;
    const float mx = *std::max_element(row, row + classes);
    float sum = 0.0f;
    for (std::size_t c = 0; c < classes; ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    for (std::size_t c = 0; c < classes; ++c) row[c] /= sum;
  }
}

}  // namespace

double BatchExecutor::loss_and_grad(std::size_t lane, const std::vector<int>& labels) {
  if (logits_blk_ == nullptr) {
    throw std::logic_error("BatchExecutor::loss_and_grad: no forward yet");
  }
  const std::size_t batch = logit_rows_, classes = logit_cols_;
  if (labels.size() != batch) {
    throw std::invalid_argument("BatchExecutor::loss_and_grad: batch size mismatch");
  }
  seed_->own(lanes_, batch * classes);
  float* probs = seed_->mlane(lane);
  std::memcpy(probs, logits_blk_->lane(lane), batch * classes * sizeof(float));
  softmax_rows(probs, batch, classes);
  double total = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    float* row = probs + r * classes;
    const float p = std::max(row[static_cast<std::size_t>(labels[r])], 1e-12f);
    total -= std::log(p);
    row[static_cast<std::size_t>(labels[r])] -= 1.0f;
    for (std::size_t c = 0; c < classes; ++c) row[c] *= inv_batch;
  }
  return total / static_cast<double>(batch);
}

void BatchExecutor::backward() {
  require_supported();
  if (logits_blk_ == nullptr) throw std::logic_error("BatchExecutor::backward: no forward yet");
  // The gradient below the lowest parameterized layer is dead weight: no
  // parameters remain to consume it. Stop the walk there and let that layer
  // skip its input-gradient product — for an MLP this removes the widest
  // backward matmul (dx of the first Dense) plus the Flatten reshape.
  std::size_t lowest_param = layers_.size();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i]->param_count() > 0) {
      lowest_param = i;
      break;
    }
  }
  const soa::Block* grad = seed_.get();
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const bool need_gin = lowest_param < i;
    layers_[i]->backward(*grad, lanes_, need_gin);
    if (!need_gin) break;
    grad = &layers_[i]->gin();
  }
}

void BatchExecutor::sgd_step(float lr, std::size_t freeze_prefix_params) {
  require_supported();
  std::size_t remaining = freeze_prefix_params;
  for (auto& layer : layers_) {
    const std::size_t np = layer->num_params();
    const std::size_t f = std::min(np, remaining);
    remaining -= f;
    layer->sgd_step(lr, f, lanes_);
  }
}

}  // namespace specdag::nn
