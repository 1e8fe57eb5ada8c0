// Token embedding lookup for the Poets next-character model.
//
// Input is a [batch, seq] tensor of token ids stored as floats (the library
// keeps a single tensor type); output is [batch, seq, dim].
#pragma once

#include "nn/layer.hpp"

namespace specdag::nn {

class Embedding : public Layer {
 public:
  Embedding(std::size_t vocab_size, std::size_t dim);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  void infer(const float* weights, const Tensor& input, Tensor& out) override;
  std::vector<Param> params() override;
  void init_params(Rng& rng) override;
  std::string name() const override { return "Embedding"; }

  std::size_t vocab_size() const { return vocab_; }
  std::size_t dim() const { return dim_; }

 private:
  // Copies the rows of `table` that `input`'s token ids name into `out`
  // [batch, seq, dim]; stores the ids into `tokens` when it is non-null.
  void lookup(const float* table, const Tensor& input, Tensor& out,
              std::vector<std::size_t>* tokens) const;

  std::size_t vocab_;
  std::size_t dim_;
  Tensor table_;       // [vocab, dim]
  Tensor grad_table_;
  std::vector<std::size_t> cached_tokens_;
  Shape cached_input_shape_;
};

}  // namespace specdag::nn
