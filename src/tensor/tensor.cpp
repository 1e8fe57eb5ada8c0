#include "tensor/tensor.hpp"

#include <numeric>
#include <sstream>

namespace specdag {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {
  if (shape_.empty()) throw std::invalid_argument("Tensor: empty shape");
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (shape_.empty()) throw std::invalid_argument("Tensor: empty shape");
  if (data_.size() != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: data size " + std::to_string(data_.size()) +
                                " does not match shape " + shape_to_string(shape_));
  }
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  if (axis >= shape_.size()) throw std::out_of_range("Tensor::dim: axis out of range");
  return shape_[axis];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("Tensor::reshaped: numel mismatch " + shape_to_string(shape_) +
                                " -> " + shape_to_string(new_shape));
  }
  return Tensor(std::move(new_shape), data_);
}

void Tensor::resize(const Shape& new_shape) {
  if (new_shape.empty()) throw std::invalid_argument("Tensor::resize: empty shape");
  shape_ = new_shape;
  data_.resize(shape_numel(shape_));
}

void Tensor::resize(std::initializer_list<std::size_t> new_shape) {
  if (new_shape.size() == 0) throw std::invalid_argument("Tensor::resize: empty shape");
  shape_.assign(new_shape);
  data_.resize(shape_numel(shape_));
}

void Tensor::resize_batch(std::size_t batch, const Shape& element_shape) {
  shape_.assign(1, batch);
  shape_.insert(shape_.end(), element_shape.begin(), element_shape.end());
  data_.resize(shape_numel(shape_));
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

}  // namespace specdag
