#include "tensor/ops.hpp"

#include <algorithm>
#include <limits>

#include "tensor/lanes.hpp"

namespace specdag {
namespace {

void require_matrix(const Tensor& t, const char* name) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(name) + " must be rank-2, got " +
                                shape_to_string(t.shape()));
  }
}

}  // namespace

// ------------------------------------------------------- raw kernels ---

void matmul_into(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                 std::size_t n) {
  lanes::gemm({.a = a, .a_row_stride = k, .a_k_stride = 1, .b = b, .c = c, .m = m, .k = k,
               .n = n});
}

void transpose_into(const float* src, float* dst, std::size_t rows, std::size_t cols) {
  // Tile by tile: a 16 x 16 tile reads 16 rows of src and writes 16 rows of
  // dst, one cache line each, where a whole-row scatter would touch a new
  // line of dst (rows floats apart) on every store.
  constexpr std::size_t kTile = 16;
  for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::size_t r1 = std::min(r0 + kTile, rows);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::size_t c1 = std::min(c0 + kTile, cols);
      for (std::size_t c = c0; c < c1; ++c) {
        float* drow = dst + c * rows;
        for (std::size_t r = r0; r < r1; ++r) drow[r] = src[r * cols + c];
      }
    }
  }
}

void matmul_transposed_b_into(const float* a, const float* b, float* c, std::size_t m,
                              std::size_t k, std::size_t n) {
  // Transposing b (n x k -> k x n) makes the columns of C contiguous for the
  // SIMD kernel while each c[i,j] still receives its kk-terms one at a time
  // in kk order, exactly as a scalar running-sum dot would.
  thread_local std::vector<float> bt;
  bt.resize(k * n);
  transpose_into(b, bt.data(), n, k);
  matmul_into(a, bt.data(), c, m, k, n);
}

void matmul_transposed_a_acc(const float* a, const float* b, float* c, std::size_t k,
                             std::size_t m, std::size_t n) {
  lanes::gemm({.a = a, .a_row_stride = 1, .a_k_stride = m, .b = b, .c = c, .m = m, .k = k,
               .n = n, .accumulate = true});
}

void add_row_bias_into(float* m, const float* bias, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m[r * cols + c] += bias[c];
  }
}

void im2col_into(const float* input, std::size_t n, std::size_t h, std::size_t w,
                 const Conv2dSpec& spec, float* cols) {
  const std::size_t c = spec.in_channels;
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w), k = spec.kernel;
  const std::size_t col_width = c * k * k;
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float* dst = cols + ((img * oh + oy) * ow + ox) * col_width;
        for (std::size_t ch = 0; ch < c; ++ch) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                static_cast<std::ptrdiff_t>(spec.padding);
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                  static_cast<std::ptrdiff_t>(spec.padding);
              float v = 0.0f;
              if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(h) && ix >= 0 &&
                  ix < static_cast<std::ptrdiff_t>(w)) {
                v = input[((img * c + ch) * h + static_cast<std::size_t>(iy)) * w +
                          static_cast<std::size_t>(ix)];
              }
              dst[(ch * k + ky) * k + kx] = v;
            }
          }
        }
      }
    }
  }
}

void col2im_into(const float* cols, std::size_t n, std::size_t h, std::size_t w,
                 const Conv2dSpec& spec, float* grad) {
  const std::size_t c = spec.in_channels;
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w), k = spec.kernel;
  const std::size_t col_width = c * k * k;
  std::fill(grad, grad + n * c * h * w, 0.0f);
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float* src = cols + ((img * oh + oy) * ow + ox) * col_width;
        for (std::size_t ch = 0; ch < c; ++ch) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                static_cast<std::ptrdiff_t>(spec.padding);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                  static_cast<std::ptrdiff_t>(spec.padding);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              grad[((img * c + ch) * h + static_cast<std::size_t>(iy)) * w +
                   static_cast<std::size_t>(ix)] += src[(ch * k + ky) * k + kx];
            }
          }
        }
      }
    }
  }
}

void positions_to_nchw(const float* cols, float* out, std::size_t n, std::size_t oc,
                       std::size_t positions) {
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t pos = 0; pos < positions; ++pos) {
      for (std::size_t ch = 0; ch < oc; ++ch) {
        out[(img * oc + ch) * positions + pos] = cols[(img * positions + pos) * oc + ch];
      }
    }
  }
}

void nchw_to_positions(const float* in, float* cols, std::size_t n, std::size_t oc,
                       std::size_t positions) {
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t pos = 0; pos < positions; ++pos) {
      for (std::size_t ch = 0; ch < oc; ++ch) {
        cols[(img * positions + pos) * oc + ch] = in[(img * oc + ch) * positions + pos];
      }
    }
  }
}

void matmul_multi_rhs(const float* a, const float* const* bs, float* const* cs,
                      std::size_t lanes, std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t l = 0; l < lanes; ++l) matmul_into(a, bs[l], cs[l], m, k, n);
}

// ---------------------------------------------------- Tensor wrappers ---

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul: a");
  require_matrix(b, "matmul: b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul: inner dims mismatch " + shape_to_string(a.shape()) +
                                " x " + shape_to_string(b.shape()));
  }
  Tensor c({m, n});
  matmul_into(a.raw(), b.raw(), c.raw(), m, k, n);
  return c;
}

Tensor matmul_transposed_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transposed_b: a");
  require_matrix(b, "matmul_transposed_b: b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument("matmul_transposed_b: inner dims mismatch");
  }
  Tensor c({m, n});
  matmul_transposed_b_into(a.raw(), b.raw(), c.raw(), m, k, n);
  return c;
}

void add_row_bias(Tensor& m, const Tensor& bias) {
  require_matrix(m, "add_row_bias: m");
  const std::size_t rows = m.dim(0), cols = m.dim(1);
  if (bias.numel() != cols) {
    throw std::invalid_argument("add_row_bias: bias size mismatch");
  }
  add_row_bias_into(m.raw(), bias.raw(), rows, cols);
}

Tensor im2col(const Tensor& input, const Conv2dSpec& spec) {
  if (input.rank() != 4) throw std::invalid_argument("im2col: input must be NCHW");
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  if (c != spec.in_channels) throw std::invalid_argument("im2col: channel mismatch");
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w), k = spec.kernel;
  Tensor cols({n * oh * ow, c * k * k});
  im2col_into(input.raw(), n, h, w, spec, cols.raw());
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& input_shape, const Conv2dSpec& spec) {
  if (input_shape.size() != 4) throw std::invalid_argument("col2im: input shape must be NCHW");
  const std::size_t n = input_shape[0], c = input_shape[1], h = input_shape[2],
                    w = input_shape[3];
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w), k = spec.kernel;
  const std::size_t col_width = c * k * k;
  if (cols.dim(0) != n * oh * ow || cols.dim(1) != col_width) {
    throw std::invalid_argument("col2im: cols shape mismatch");
  }
  Tensor grad(input_shape);
  col2im_into(cols.raw(), n, h, w, spec, grad.raw());
  return grad;
}

Tensor conv2d_forward(const Tensor& input, const Tensor& filters, const Tensor& bias,
                      const Conv2dSpec& spec) {
  const std::size_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  if (filters.dim(0) != spec.out_channels ||
      filters.dim(1) != spec.in_channels * spec.kernel * spec.kernel) {
    throw std::invalid_argument("conv2d_forward: filter shape mismatch");
  }
  Tensor cols = im2col(input, spec);
  // [N*OH*OW, CKK] x [OC, CKK]^T = [N*OH*OW, OC]
  Tensor out_cols = matmul_transposed_b(cols, filters);
  add_row_bias(out_cols, bias);
  // Transpose the trailing [positions, OC] into NCHW.
  Tensor output({n, spec.out_channels, oh, ow});
  positions_to_nchw(out_cols.raw(), output.raw(), n, spec.out_channels, oh * ow);
  return output;
}

void maxpool2d_forward_into(const float* input, std::size_t n, std::size_t c, std::size_t h,
                            std::size_t w, std::size_t size, std::size_t stride, float* out,
                            std::size_t* argmax) {
  const std::size_t oh = (h - size) / stride + 1;
  const std::size_t ow = (w - size) / stride + 1;
  std::size_t out_i = 0;
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t plane = (img * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_i) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < size; ++ky) {
            for (std::size_t kx = 0; kx < size; ++kx) {
              const std::size_t idx = plane + (oy * stride + ky) * w + (ox * stride + kx);
              if (input[idx] > best) {
                best = input[idx];
                best_idx = idx;
              }
            }
          }
          out[out_i] = best;
          argmax[out_i] = best_idx;
        }
      }
    }
  }
}

MaxPoolResult maxpool2d_forward(const Tensor& input, std::size_t size, std::size_t stride) {
  if (input.rank() != 4) throw std::invalid_argument("maxpool2d: input must be NCHW");
  if (size == 0 || stride == 0) throw std::invalid_argument("maxpool2d: zero size/stride");
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  if (h < size || w < size) throw std::invalid_argument("maxpool2d: window larger than input");
  const std::size_t oh = (h - size) / stride + 1;
  const std::size_t ow = (w - size) / stride + 1;
  MaxPoolResult result{Tensor({n, c, oh, ow}), {}};
  result.argmax.resize(n * c * oh * ow);
  maxpool2d_forward_into(input.raw(), n, c, h, w, size, stride, result.output.raw(),
                         result.argmax.data());
  return result;
}

Tensor maxpool2d_backward(const Tensor& grad_output, const Shape& input_shape,
                          const std::vector<std::size_t>& argmax) {
  if (grad_output.numel() != argmax.size()) {
    throw std::invalid_argument("maxpool2d_backward: argmax size mismatch");
  }
  Tensor grad_input(input_shape);
  float* pg = grad_input.raw();
  const float* po = grad_output.raw();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    if (argmax[i] >= grad_input.numel()) {
      throw std::out_of_range("maxpool2d_backward: argmax index out of range");
    }
    pg[argmax[i]] += po[i];
  }
  return grad_input;
}

}  // namespace specdag
