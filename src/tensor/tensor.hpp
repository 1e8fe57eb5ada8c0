// Minimal dense float tensor: row-major storage plus a shape vector.
//
// This is the numeric substrate for the NN library. It deliberately supports
// only what the paper's models need: construction, reshaping, an in-place
// sum, and accessors. Heavier kernels (matmul, conv, pooling) live in
// tensor/ops.hpp so they can be tested and benchmarked in isolation.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace specdag {

using Shape = std::vector<std::size_t>;

std::size_t shape_numel(const Shape& shape);
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;

  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  // Tensor with explicit contents; data.size() must equal the shape product.
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  std::size_t dim(std::size_t axis) const;

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  // 2-D accessor (matrix layout [rows, cols]); unchecked for speed.
  float& at(std::size_t r, std::size_t c) { return data_[r * shape_[1] + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * shape_[1] + c]; }

  // Returns a tensor with the same data but a different shape (numel must
  // match).
  Tensor reshaped(Shape new_shape) const;

  // Reshapes in place, growing/shrinking storage as needed. Existing element
  // values are unspecified afterwards; the shape's and the data's capacity
  // are retained, so scratch tensors in hot loops can change batch size
  // without reallocating.
  void resize(const Shape& new_shape);
  void resize(std::initializer_list<std::size_t> new_shape);
  // The same, to [batch, element_shape...].
  void resize_batch(std::size_t batch, const Shape& element_shape);

  void fill(float value);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace specdag
