// Dense kernels used by the NN layers: GEMM-style matmul, im2col convolution,
// and max pooling. All tensors are row-major.
//
// Layout conventions:
//   Matrices            : [rows, cols]
//   Image batches (NCHW): [batch, channels, height, width]
#pragma once

#include "tensor/tensor.hpp"

namespace specdag {

// C = A(m,k) * B(k,n). Shapes are validated.
Tensor matmul(const Tensor& a, const Tensor& b);

// C = A(m,k) * B(n,k)^T — used by backward passes without materializing
// transposes.
Tensor matmul_transposed_b(const Tensor& a, const Tensor& b);

// Adds a row vector `bias` [1, n] (or [n]) to every row of `m` [rows, n].
void add_row_bias(Tensor& m, const Tensor& bias);

struct Conv2dSpec {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 0;       // square kernels, as in the paper's models
  std::size_t stride = 1;
  std::size_t padding = 0;      // "same"-style padding is computed by callers

  std::size_t out_dim(std::size_t in_dim) const {
    if (in_dim + 2 * padding < kernel) {
      throw std::invalid_argument("Conv2dSpec: kernel larger than padded input");
    }
    return (in_dim + 2 * padding - kernel) / stride + 1;
  }
};

// Unfolds input [N, C, H, W] into columns [N * OH * OW, C * K * K] so the
// convolution becomes one matmul against the [out_channels, C*K*K] filter.
Tensor im2col(const Tensor& input, const Conv2dSpec& spec);

// Folds column gradients back into input-gradient layout (adjoint of im2col).
Tensor col2im(const Tensor& cols, const Shape& input_shape, const Conv2dSpec& spec);

// Forward convolution via im2col + matmul.
// input [N, C, H, W], filters [OC, C*K*K], bias [OC] -> output [N, OC, OH, OW].
Tensor conv2d_forward(const Tensor& input, const Tensor& filters, const Tensor& bias,
                      const Conv2dSpec& spec);

struct MaxPoolResult {
  Tensor output;                     // [N, C, OH, OW]
  std::vector<std::size_t> argmax;   // flat input index of each output's max
};

// Max pooling with square window `size` and stride `stride`.
MaxPoolResult maxpool2d_forward(const Tensor& input, std::size_t size, std::size_t stride);

// Routes output gradients back to the argmax positions.
Tensor maxpool2d_backward(const Tensor& grad_output, const Shape& input_shape,
                          const std::vector<std::size_t>& argmax);

// ----------------------------------------------------------------------------
// Raw-pointer kernels. The Tensor overloads above are thin wrappers around
// these; layers and the SoA batch executor call them directly so hot loops can
// reuse persistent scratch buffers instead of allocating a Tensor per batch.
//
// Every matmul below is one lanes::gemm call, so all four share one
// arithmetic: each C element starts from +0.0f (or its current value for
// the _acc variant) and adds its terms A(i,kk)*B(kk,j) in kk-ascending order,
// each as a separate multiply-then-add, skipping every term whose A element
// is +-0.0f. The skip is part of the reference semantics, not just a speedup:
// an IEEE dot product would add 0*inf = NaN (or 0*NaN) where B holds inf or
// NaN, and could turn a -0.0f already in C into +0.0f; this one does neither.

// C(m,n) = A(m,k) * B(k,n). Overwrites C.
void matmul_into(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                 std::size_t n);

// dst(cols,rows) = src(rows,cols)^T.
void transpose_into(const float* src, float* dst, std::size_t rows, std::size_t cols);

// C(m,n) = A(m,k) * B(n,k)^T. Overwrites C.
void matmul_transposed_b_into(const float* a, const float* b, float* c, std::size_t m,
                              std::size_t k, std::size_t n);

// C(m,n) += A(k,m)^T * B(k,n). Accumulates — caller zeroes C when needed.
void matmul_transposed_a_acc(const float* a, const float* b, float* c, std::size_t k,
                             std::size_t m, std::size_t n);

// m[r, :] += bias for every row.
void add_row_bias_into(float* m, const float* bias, std::size_t rows, std::size_t cols);

// im2col / col2im over raw NCHW buffers. col2im zeroes `grad` first.
void im2col_into(const float* input, std::size_t n, std::size_t h, std::size_t w,
                 const Conv2dSpec& spec, float* cols);
void col2im_into(const float* cols, std::size_t n, std::size_t h, std::size_t w,
                 const Conv2dSpec& spec, float* grad);

// Transposes between the conv GEMM layout [N*positions, OC] and NCHW
// [N, OC, positions] (and back, for the backward pass).
void positions_to_nchw(const float* cols, float* out, std::size_t n, std::size_t oc,
                       std::size_t positions);
void nchw_to_positions(const float* in, float* cols, std::size_t n, std::size_t oc,
                       std::size_t positions);

// Shared-A multi-RHS matmul: cs[l](m,n) = A(m,k) * bs[l](k,n) for each of
// `lanes` right-hand sides, bit-identical to matmul_into per lane. It is
// that loop: interleaving lanes over row blocks of a large A measured no
// faster, since the blocked kernel already re-reads A from cache. No
// production code calls it; it stays only as the kernel-ladder row that
// perfbench reads from micro_core (BM_MatmulMultiRhs).
void matmul_multi_rhs(const float* a, const float* const* bs, float* const* cs,
                      std::size_t lanes, std::size_t m, std::size_t k, std::size_t n);

// Max pooling over a raw NCHW buffer; `out` and `argmax` must hold
// n*c*oh*ow elements. Same scan order (strict >, -inf init) as the Tensor
// overload, which delegates here.
void maxpool2d_forward_into(const float* input, std::size_t n, std::size_t c, std::size_t h,
                            std::size_t w, std::size_t size, std::size_t stride, float* out,
                            std::size_t* argmax);

}  // namespace specdag
