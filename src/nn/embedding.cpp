#include "nn/embedding.hpp"

#include <cmath>

#include "nn/init.hpp"

namespace specdag::nn {

Embedding::Embedding(std::size_t vocab_size, std::size_t dim)
    : vocab_(vocab_size),
      dim_(dim),
      table_({vocab_size, dim}),
      grad_table_({vocab_size, dim}) {
  if (vocab_ == 0 || dim_ == 0) throw std::invalid_argument("Embedding: zero-sized table");
}

void Embedding::lookup(const float* table, const Tensor& input, Tensor& out,
                       std::vector<std::size_t>* tokens) const {
  if (input.rank() != 2) {
    throw std::invalid_argument("Embedding::forward: expected [batch, seq], got " +
                                shape_to_string(input.shape()));
  }
  const std::size_t batch = input.dim(0), seq = input.dim(1);
  out.resize({batch, seq, dim_});
  if (tokens != nullptr) tokens->resize(batch * seq);
  for (std::size_t i = 0; i < batch * seq; ++i) {
    const float raw = input[i];
    if (raw < 0.0f || std::floor(raw) != raw || static_cast<std::size_t>(raw) >= vocab_) {
      throw std::invalid_argument("Embedding::forward: token id out of range");
    }
    const auto tok = static_cast<std::size_t>(raw);
    if (tokens != nullptr) (*tokens)[i] = tok;
    const float* src = table + tok * dim_;
    std::copy(src, src + dim_, out.raw() + i * dim_);
  }
}

Tensor Embedding::forward(const Tensor& input, bool train) {
  Tensor out;
  std::vector<std::size_t> tokens;
  lookup(table_.raw(), input, out, &tokens);
  if (train) {
    cached_tokens_ = std::move(tokens);
    cached_input_shape_ = input.shape();
  }
  return out;
}

// forward on the table slice, read in place.
void Embedding::infer(const float* weights, const Tensor& input, Tensor& out) {
  lookup(weights, input, out, nullptr);
}

Tensor Embedding::backward(const Tensor& grad_output) {
  if (cached_tokens_.empty()) {
    throw std::logic_error("Embedding::backward: no cached forward activation");
  }
  if (grad_output.numel() != cached_tokens_.size() * dim_) {
    throw std::invalid_argument("Embedding::backward: grad shape mismatch");
  }
  for (std::size_t i = 0; i < cached_tokens_.size(); ++i) {
    const float* src = grad_output.raw() + i * dim_;
    float* dst = grad_table_.raw() + cached_tokens_[i] * dim_;
    for (std::size_t d = 0; d < dim_; ++d) dst[d] += src[d];
  }
  // Token ids are not differentiable; return a zero gradient of input shape.
  return Tensor(cached_input_shape_);
}

std::vector<Param> Embedding::params() {
  return {{&table_, &grad_table_, "embedding.table"}};
}

void Embedding::init_params(Rng& rng) { normal_init(table_, 0.05, rng); }

}  // namespace specdag::nn
