#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/lanes.hpp"
#include "util/rng.hpp"

namespace specdag {
namespace {

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

TEST(Matmul, KnownProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, IdentityIsNoop) {
  Rng rng(1);
  Tensor a = random_tensor({3, 3}, rng);
  Tensor eye({3, 3});
  for (int i = 0; i < 3; ++i) eye.at(i, i) = 1.0f;
  Tensor c = matmul(a, eye);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_NEAR(c[i], a[i], 1e-6);
}

TEST(Matmul, ShapeMismatchThrows) {
  Tensor a({2, 3}), b({2, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  Tensor vec({3});
  EXPECT_THROW(matmul(vec, b), std::invalid_argument);
}

TEST(Matmul, TransposedVariantsAgree) {
  Rng rng(2);
  Tensor a = random_tensor({4, 5}, rng);
  Tensor b = random_tensor({5, 3}, rng);
  const Tensor reference = matmul(a, b);

  // matmul_transposed_b(a, b_t) where b_t = b^T stored as [3, 5].
  Tensor b_t({3, 5});
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) b_t.at(j, i) = b.at(i, j);
  }
  const Tensor via_bt = matmul_transposed_b(a, b_t);
  ASSERT_EQ(via_bt.shape(), reference.shape());
  for (std::size_t i = 0; i < reference.numel(); ++i) {
    EXPECT_NEAR(via_bt[i], reference[i], 1e-5);
  }

  // matmul_transposed_a(a_t, b) where a_t = a^T stored as [5, 4].
  Tensor a_t({5, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) a_t.at(j, i) = a.at(i, j);
  }
  const Tensor via_at = matmul_transposed_a(a_t, b);
  ASSERT_EQ(via_at.shape(), reference.shape());
  for (std::size_t i = 0; i < reference.numel(); ++i) {
    EXPECT_NEAR(via_at[i], reference[i], 1e-5);
  }
}

TEST(AddRowBias, AddsToEveryRow) {
  Tensor m({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias({3}, {10, 20, 30});
  add_row_bias(m, bias);
  EXPECT_FLOAT_EQ(m.at(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(m.at(1, 2), 31.0f);
  Tensor bad({2});
  EXPECT_THROW(add_row_bias(m, bad), std::invalid_argument);
}

TEST(Conv2dSpec, OutDims) {
  Conv2dSpec spec{1, 1, 3, 1, 0};
  EXPECT_EQ(spec.out_dim(5), 3u);
  spec.padding = 1;
  EXPECT_EQ(spec.out_dim(5), 5u);
  spec.stride = 2;
  EXPECT_EQ(spec.out_dim(5), 3u);
  Conv2dSpec too_big{1, 1, 7, 1, 0};
  EXPECT_THROW(too_big.out_dim(5), std::invalid_argument);
}

TEST(Im2Col, IdentityKernelRoundTrip) {
  // 1x1 kernel: im2col is a transpose-free reshape of the input.
  Rng rng(3);
  Tensor input = random_tensor({2, 3, 4, 4}, rng);
  Conv2dSpec spec{3, 1, 1, 1, 0};
  Tensor cols = im2col(input, spec);
  EXPECT_EQ(cols.shape(), (Shape{2 * 4 * 4, 3}));
  // Channel 0 of image 0 pixel (0,0) must appear in cols(0, 0).
  EXPECT_FLOAT_EQ(cols.at(0, 0), input[0]);
}

TEST(Im2Col, PaddingProducesZeros) {
  Tensor input = Tensor::full({1, 1, 2, 2}, 1.0f);
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Tensor cols = im2col(input, spec);
  EXPECT_EQ(cols.shape(), (Shape{4, 9}));
  // Top-left output position: the kernel's first row/col overlaps padding.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);  // (-1,-1) is padding
  EXPECT_FLOAT_EQ(cols.at(0, 4), 1.0f);  // center hits (0,0)
}

TEST(Col2Im, IsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property
  // of the adjoint, which is exactly what backprop requires.
  Rng rng(4);
  Tensor x = random_tensor({2, 2, 5, 5}, rng);
  Conv2dSpec spec{2, 1, 3, 2, 1};
  Tensor cols = im2col(x, spec);
  Tensor y = random_tensor(cols.shape(), rng);
  Tensor back = col2im(y, x.shape(), spec);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols[i]) * y[i];
  }
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Conv2dForward, MatchesManualConvolution) {
  // 1 channel, 2x2 input, 2x2 kernel, no padding -> single output value.
  Tensor input({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor filters({1, 4}, {10, 20, 30, 40});
  Tensor bias({1}, {5});
  Conv2dSpec spec{1, 1, 2, 1, 0};
  Tensor out = conv2d_forward(input, filters, bias, spec);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40 + 5);
}

TEST(Conv2dForward, MultiChannelShape) {
  Rng rng(5);
  Tensor input = random_tensor({3, 2, 8, 8}, rng);
  Conv2dSpec spec{2, 4, 3, 1, 1};
  Tensor filters = random_tensor({4, 2 * 3 * 3}, rng);
  Tensor bias({4});
  Tensor out = conv2d_forward(input, filters, bias, spec);
  EXPECT_EQ(out.shape(), (Shape{3, 4, 8, 8}));
}

TEST(MaxPool, ForwardValuesAndArgmax) {
  Tensor input({1, 1, 2, 2}, {1, 5, 3, 2});
  MaxPoolResult result = maxpool2d_forward(input, 2, 2);
  EXPECT_EQ(result.output.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(result.output[0], 5.0f);
  EXPECT_EQ(result.argmax[0], 1u);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  Tensor input({1, 1, 2, 2}, {1, 5, 3, 2});
  MaxPoolResult fwd = maxpool2d_forward(input, 2, 2);
  Tensor grad_out({1, 1, 1, 1}, {7.0f});
  Tensor grad_in = maxpool2d_backward(grad_out, input.shape(), fwd.argmax);
  EXPECT_FLOAT_EQ(grad_in[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[1], 7.0f);
  EXPECT_FLOAT_EQ(grad_in[2], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[3], 0.0f);
}

TEST(MaxPool, StrideSmallerThanWindow) {
  // Overlapping pooling: 3x3 input, window 2, stride 1 -> 2x2 output.
  Tensor input({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  MaxPoolResult result = maxpool2d_forward(input, 2, 1);
  EXPECT_EQ(result.output.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(result.output[0], 5.0f);
  EXPECT_FLOAT_EQ(result.output[3], 9.0f);
}

TEST(MaxPool, RejectsBadArgs) {
  Tensor input({1, 1, 2, 2});
  EXPECT_THROW(maxpool2d_forward(input, 0, 1), std::invalid_argument);
  EXPECT_THROW(maxpool2d_forward(input, 3, 1), std::invalid_argument);
  Tensor not_nchw({2, 2});
  EXPECT_THROW(maxpool2d_forward(not_nchw, 1, 1), std::invalid_argument);
}

// ------------------------------------------- SIMD backends vs reference ---
//
// Every backend the host can run is held against the scalar backend bit for
// bit (memcmp, so signed zeros and NaN payloads count), on operands built to
// exercise the reference semantics of lanes.hpp.

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

bool all_finite(const std::vector<float>& v) {
  for (const float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Row-major A(m,k) and B(k,n) for the zero-skip: about a quarter of A is an
// exact +0.0 or -0.0, row 1 of A is all zeros, and where k >= 8, column 3 of
// A is all zeros while row 3 of B holds inf, -inf and NaN. The reference
// never multiplies those, so its products stay finite.
struct GemmOperands {
  std::vector<float> a, b;
};

GemmOperands make_gemm_operands(std::size_t m, std::size_t k, std::size_t n, Rng& rng) {
  GemmOperands ops{std::vector<float>(m * k), std::vector<float>(k * n)};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      float v = static_cast<float>(rng.uniform(-1.0, 1.0));
      if (rng.index(4) == 0 || i == 1 || (k >= 8 && kk == 3)) v = (i + kk) % 2 ? -0.0f : 0.0f;
      ops.a[i * k + kk] = v;
    }
  }
  const float specials[] = {kInf, -kInf, kNaN};
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t j = 0; j < n; ++j) {
      ops.b[kk * n + j] =
          k >= 8 && kk == 3 ? specials[j % 3] : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return ops;
}

// A nonzero C for the accumulating variant, with some -0.0 entries (row 1
// of A is zero, so those survive the reference untouched).
std::vector<float> make_c0(std::size_t m, std::size_t n, Rng& rng) {
  std::vector<float> c(m * n);
  for (std::size_t e = 0; e < c.size(); ++e) {
    c[e] = e % 5 == 0 ? -0.0f : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return c;
}

std::vector<float> transpose(const std::vector<float>& x, std::size_t rows, std::size_t cols) {
  std::vector<float> t(x.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) t[c * rows + r] = x[r * cols + c];
  }
  return t;
}

// Row counts and widths around every backend's block edges: the AVX-512
// kernel blocks 8 rows and 32 columns and masks the last vector of a row,
// AVX2 and SSE2 block 2 rows and hand n % 8 or n % 4 columns to scalar.
const std::size_t kMs[] = {1, 2, 3, 4, 8, 9, 16, 30};
const std::size_t kKs[] = {1, 8, 256};
const std::size_t kNs[] = {1, 7, 8, 9, 10, 15, 16, 17, 31, 32, 33, 48, 96};

TEST(Lanes, ScalarBackendIsAlwaysCompiledAndLast) {
  const auto backends = lanes::host_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.back().name, "scalar");
  EXPECT_STREQ(backends.front().name, lanes::backend());
}

// Both operand layouts the matmul entry points hand to gemm: row-major A
// overwriting C (matmul_into, matmul_transposed_b_into, matmul_multi_rhs)
// and column-major A accumulating into C (matmul_transposed_a_acc).
TEST(Lanes, EveryBackendGemmMatchesScalarBitForBit) {
  const lanes::Backend reference = lanes::host_backends().back();
  Rng rng(21);
  for (const std::size_t m : kMs) {
    for (const std::size_t k : kKs) {
      for (const std::size_t n : kNs) {
        const GemmOperands ops = make_gemm_operands(m, k, n, rng);
        const std::vector<float> at = transpose(ops.a, m, k);
        const std::vector<float> c0 = make_c0(m, n, rng);
        std::vector<float> want(m * n), want_acc = c0;
        reference.gemm({.a = ops.a.data(), .a_row_stride = k, .a_k_stride = 1,
                        .b = ops.b.data(), .c = want.data(), .m = m, .k = k, .n = n});
        reference.gemm({.a = at.data(), .a_row_stride = 1, .a_k_stride = m, .b = ops.b.data(),
                        .c = want_acc.data(), .m = m, .k = k, .n = n, .accumulate = true});
        ASSERT_TRUE(all_finite(want)) << "the zero-skip let inf/NaN into the reference";
        ASSERT_TRUE(all_finite(want_acc));
        for (const lanes::Backend& backend : lanes::host_backends()) {
          SCOPED_TRACE(testing::Message() << backend.name << " m=" << m << " k=" << k
                                          << " n=" << n);
          std::vector<float> got(m * n, kNaN), got_acc = c0;
          backend.gemm({.a = ops.a.data(), .a_row_stride = k, .a_k_stride = 1,
                        .b = ops.b.data(), .c = got.data(), .m = m, .k = k, .n = n});
          backend.gemm({.a = at.data(), .a_row_stride = 1, .a_k_stride = m, .b = ops.b.data(),
                        .c = got_acc.data(), .m = m, .k = k, .n = n, .accumulate = true});
          EXPECT_TRUE(same_bits(got, want));
          EXPECT_TRUE(same_bits(got_acc, want_acc));
        }
      }
    }
  }
}

// The four ops.hpp entry points (on the dispatched backend) against the
// scalar gemm on explicitly laid-out operands: checks their strides and
// transposes, and covers a shared A above 256 KiB for matmul_multi_rhs.
TEST(Matmul, EntryPointsMatchScalarReferenceBitForBit) {
  const lanes::Backend reference = lanes::host_backends().back();
  Rng rng(22);
  for (const std::size_t m : kMs) {
    for (const std::size_t k : kKs) {
      for (const std::size_t n : kNs) {
        SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k << " n=" << n);
        const GemmOperands ops = make_gemm_operands(m, k, n, rng);
        std::vector<float> want(m * n);
        reference.gemm({.a = ops.a.data(), .a_row_stride = k, .a_k_stride = 1,
                        .b = ops.b.data(), .c = want.data(), .m = m, .k = k, .n = n});

        std::vector<float> got(m * n, kNaN);
        matmul_into(ops.a.data(), ops.b.data(), got.data(), m, k, n);
        EXPECT_TRUE(same_bits(got, want)) << "matmul_into";

        const std::vector<float> b_nk = transpose(ops.b, k, n);
        std::fill(got.begin(), got.end(), kNaN);
        matmul_transposed_b_into(ops.a.data(), b_nk.data(), got.data(), m, k, n);
        EXPECT_TRUE(same_bits(got, want)) << "matmul_transposed_b_into";

        const std::vector<float> c0 = make_c0(m, n, rng);
        std::vector<float> want_acc = c0, got_acc = c0;
        reference.gemm({.a = ops.a.data(), .a_row_stride = k, .a_k_stride = 1,
                        .b = ops.b.data(), .c = want_acc.data(), .m = m, .k = k, .n = n,
                        .accumulate = true});
        const std::vector<float> a_km = transpose(ops.a, m, k);
        matmul_transposed_a_acc(a_km.data(), ops.b.data(), got_acc.data(), k, m, n);
        EXPECT_TRUE(same_bits(got_acc, want_acc)) << "matmul_transposed_a_acc";
      }
    }
  }
}

TEST(Matmul, MultiRhsLargeSharedAMatchesScalarReferenceBitForBit) {
  const lanes::Backend reference = lanes::host_backends().back();
  const std::size_t m = 300, k = 256, n = 33, lanes = 3;
  static_assert(300 * 256 * sizeof(float) > (std::size_t{256} << 10));
  Rng rng(23);
  const std::vector<float> a = make_gemm_operands(m, k, 1, rng).a;
  std::vector<std::vector<float>> bs, cs(lanes, std::vector<float>(m * n, kNaN));
  std::vector<const float*> bptrs;
  std::vector<float*> cptrs;
  for (std::size_t l = 0; l < lanes; ++l) {
    bs.push_back(make_gemm_operands(1, k, n, rng).b);
    bptrs.push_back(bs[l].data());
    cptrs.push_back(cs[l].data());
  }
  matmul_multi_rhs(a.data(), bptrs.data(), cptrs.data(), lanes, m, k, n);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<float> want(m * n);
    reference.gemm({.a = a.data(), .a_row_stride = k, .a_k_stride = 1, .b = bs[l].data(),
                    .c = want.data(), .m = m, .k = k, .n = n});
    EXPECT_TRUE(same_bits(cs[l], want)) << "lane " << l;
  }
}

TEST(Lanes, EveryBackendElementKernelMatchesScalarBitForBit) {
  const lanes::Backend reference = lanes::host_backends().back();
  const float specials[] = {0.0f, -0.0f, kInf, -kInf, kNaN, 1e-40f, -1e-40f};
  Rng rng(24);
  for (const std::size_t n : kNs) {
    // x carries every special; g is finite where x is NaN so that each
    // output has at most one NaN source and its payload is well defined.
    std::vector<float> x(n), g(n);
    for (std::size_t j = 0; j < n; ++j) {
      x[j] = j % 3 == 0 ? specials[(j / 3) % std::size(specials)]
                        : static_cast<float>(rng.uniform(-1.0, 1.0));
      g[j] = j % 4 == 1 ? -0.0f : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    std::vector<float> want_relu(n), want_mask = g, want_w = x, want_g = g;
    reference.relu_forward(x.data(), want_relu.data(), n);
    reference.relu_backward_mask(x.data(), want_mask.data(), n);
    reference.sgd_step(want_w.data(), want_g.data(), 0.05f, n);
    for (const lanes::Backend& backend : lanes::host_backends()) {
      SCOPED_TRACE(testing::Message() << backend.name << " n=" << n);
      std::vector<float> relu(n, kNaN), mask = g, w = x, gw = g;
      backend.relu_forward(x.data(), relu.data(), n);
      backend.relu_backward_mask(x.data(), mask.data(), n);
      backend.sgd_step(w.data(), gw.data(), 0.05f, n);
      EXPECT_TRUE(same_bits(relu, want_relu)) << "relu_forward";
      EXPECT_TRUE(same_bits(mask, want_mask)) << "relu_backward_mask";
      EXPECT_TRUE(same_bits(w, want_w)) << "sgd_step weights";
      EXPECT_TRUE(same_bits(gw, want_g)) << "sgd_step grads";
    }
  }
}

}  // namespace
}  // namespace specdag
