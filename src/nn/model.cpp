#include "nn/model.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace specdag::nn {

Tensor Sequential::forward(const Tensor& input, bool train) {
  if (layers_.empty()) throw std::logic_error("Sequential::forward: no layers");
  Tensor x = layers_.front()->forward(input, train);
  for (auto it = std::next(layers_.begin()); it != layers_.end(); ++it) {
    x = (*it)->forward(x, train);
  }
  return x;
}

void Sequential::backward(const Tensor& grad_output) {
  if (layers_.empty()) throw std::logic_error("Sequential::backward: no layers");
  // Backpropagation stops at the first trainable layer: nothing reads its
  // input gradient, and the stateless layers before it have nothing to update.
  const auto first = std::find_if(layers_.begin(), layers_.end(),
                                  [](const LayerPtr& layer) { return !layer->params().empty(); });
  if (first == layers_.end()) return;
  Tensor g = grad_output;
  for (auto it = std::prev(layers_.end()); it != first; --it) g = (*it)->backward(g);
  (*first)->backward_params(g);
}

std::vector<Param> Sequential::params() {
  std::vector<Param> all;
  for (auto& layer : layers_) {
    for (auto& p : layer->params()) all.push_back(p);
  }
  return all;
}

std::size_t Sequential::num_weights() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->numel();
  return n;
}

void Sequential::init_params(Rng& rng) {
  for (auto& layer : layers_) layer->init_params(rng);
}

void Sequential::zero_grads() {
  for (auto& p : params()) p.grad->fill(0.0f);
}

WeightVector Sequential::get_weights() {
  WeightVector flat;
  flat.reserve(num_weights());
  for (const auto& p : params()) {
    const auto& data = p.value->data();
    flat.insert(flat.end(), data.begin(), data.end());
  }
  return flat;
}

void Sequential::set_weights(const WeightVector& weights) {
  std::size_t offset = 0;
  for (auto& p : params()) {
    auto& data = p.value->data();
    if (offset + data.size() > weights.size()) {
      throw std::invalid_argument("Sequential::set_weights: weight vector too short");
    }
    std::copy(weights.begin() + static_cast<std::ptrdiff_t>(offset),
              weights.begin() + static_cast<std::ptrdiff_t>(offset + data.size()), data.begin());
    offset += data.size();
  }
  if (offset != weights.size()) {
    throw std::invalid_argument("Sequential::set_weights: weight vector too long (" +
                                std::to_string(weights.size()) + " vs " + std::to_string(offset) +
                                ")");
  }
}

const Tensor& Sequential::infer(const WeightVector& weights, const Tensor& input) {
  if (layers_.empty()) throw std::logic_error("Sequential::infer: no layers");
  if (layer_weights_.size() != layers_.size()) {
    layer_weights_.clear();
    total_weights_ = 0;
    for (auto& layer : layers_) {
      std::size_t n = 0;
      for (const auto& p : layer->params()) n += p.value->numel();
      layer_weights_.push_back(n);
      total_weights_ += n;
    }
    infer_out_.resize(layers_.size());
  }
  if (weights.size() < total_weights_) {
    throw std::invalid_argument("Sequential::infer: weight vector too short");
  }
  if (weights.size() > total_weights_) {
    throw std::invalid_argument("Sequential::infer: weight vector too long (" +
                                std::to_string(weights.size()) + " vs " +
                                std::to_string(total_weights_) + ")");
  }
  const float* slice = weights.data();
  const Tensor* x = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->infer(slice, *x, infer_out_[i]);
    slice += layer_weights_[i];
    x = &infer_out_[i];
  }
  return *x;
}

WeightVector average_weights(const std::vector<const WeightVector*>& weights) {
  if (weights.empty()) throw std::invalid_argument("average_weights: empty input");
  std::vector<double> uniform(weights.size(), 1.0);
  return weighted_average_weights(weights, uniform);
}

WeightVector average_weights(const WeightVector& a, const WeightVector& b) {
  return average_weights({&a, &b});
}

WeightVector weighted_average_weights(const std::vector<const WeightVector*>& weights,
                                      const std::vector<double>& coefficients) {
  if (weights.empty()) throw std::invalid_argument("weighted_average_weights: empty input");
  if (weights.size() != coefficients.size()) {
    throw std::invalid_argument("weighted_average_weights: coefficient count mismatch");
  }
  const std::size_t n = weights.front()->size();
  double total = 0.0;
  for (double c : coefficients) {
    if (c < 0.0) throw std::invalid_argument("weighted_average_weights: negative coefficient");
    total += c;
  }
  if (total <= 0.0) throw std::invalid_argument("weighted_average_weights: zero total weight");
  // The inputs with a non-zero share, in input order.
  std::vector<std::pair<const float*, double>> terms;
  for (std::size_t w = 0; w < weights.size(); ++w) {
    if (weights[w]->size() != n) {
      throw std::invalid_argument("weighted_average_weights: length mismatch");
    }
    const double coeff = coefficients[w] / total;
    if (coeff != 0.0) terms.emplace_back(weights[w]->data(), coeff);
  }
  // One pass in cache-sized blocks, no n-element scratch. Each element's
  // double accumulator starts at 0 and takes the terms in input order: that
  // order fixes the result bit for bit (the library builds without FP
  // contraction).
  constexpr std::size_t kBlock = 256;
  double acc[kBlock];
  WeightVector out(n);
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t len = std::min(kBlock, n - begin);
    std::fill_n(acc, len, 0.0);
    for (const auto& [vec, coeff] : terms) {
      const float* x = vec + begin;
      for (std::size_t i = 0; i < len; ++i) acc[i] += coeff * static_cast<double>(x[i]);
    }
    for (std::size_t i = 0; i < len; ++i) out[begin + i] = static_cast<float>(acc[i]);
  }
  return out;
}

double weight_distance(const WeightVector& a, const WeightVector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("weight_distance: length mismatch");
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sq += d * d;
  }
  return std::sqrt(sq);
}

}  // namespace specdag::nn
