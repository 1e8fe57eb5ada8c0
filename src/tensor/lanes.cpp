#include "tensor/lanes.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SPECDAG_LANES_X86 1
#include <immintrin.h>
#endif

namespace specdag::lanes {
namespace {

// ------------------------------------------------------------- scalar ---
//
// The scalar loops are the reference semantics; the SIMD variants below
// must match them bit-for-bit (mul-then-add only — never FMA, which fuses
// the rounding step and changes low bits). They are compiled on every host,
// so tests can hold each SIMD backend against them.

// The reference GEMM: the ikj loop, over the columns [j0, n) of C. The SIMD
// backends hand it their tail columns, so those take the scalar order.
void gemm_columns_scalar(const GemmArgs& g, std::size_t j0) {
  if (j0 == g.n) return;
  for (std::size_t i = 0; i < g.m; ++i) {
    float* crow = g.c + i * g.n;
    if (!g.accumulate) std::fill(crow + j0, crow + g.n, 0.0f);
    const float* arow = g.a + i * g.a_row_stride;
    for (std::size_t kk = 0; kk < g.k; ++kk) {
      const float aik = arow[kk * g.a_k_stride];
      if (aik == 0.0f) continue;
      const float* brow = g.b + kk * g.n;
      for (std::size_t j = j0; j < g.n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm_scalar(const GemmArgs& g) { gemm_columns_scalar(g, 0); }

void sgd_step_scalar(float* w, float* g, float lr, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    w[j] -= lr * g[j];
    g[j] = 0.0f;
  }
}

void relu_forward_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) y[j] = x[j] > 0.0f ? x[j] : 0.0f;
}

void relu_backward_mask_scalar(const float* x, float* g, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    if (x[j] <= 0.0f) g[j] = 0.0f;
  }
}

// ------------------------------------------------ exp, sigmoid, tanh ---
//
// Ports of glibc's expf and fdlibm's tanhf, op for op; lanes.hpp says which
// versions. Each SIMD backend computes the same operations on every lane.

#if defined(__clang__)
#define SPECDAG_NO_CONTRACT
#else
#define SPECDAG_NO_CONTRACT __attribute__((optimize("fp-contract=off")))
#endif

constexpr float kInf = std::numeric_limits<float>::infinity();

constexpr std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }
constexpr float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }

// expf (glibc e_expf.c with e_exp2f_data.c, N = 32): x·N/ln2 = k + r with
// |r| <= 1/2, exp(x) = 2^(k/N) · poly(r). kExpTab[i] holds bits(2^(i/N))
// minus i << 47, so bits(2^(k/N)) is kExpTab[k % N] + (k << 47) for any
// |k| < 150·N.
constexpr std::uint64_t kExpTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kExpInvLn2N = 0x1.71547652b82fep+0 * 32;
constexpr double kExpShift = 0x1.8p+52;
constexpr double kExpC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;
// The |x| >= 88 cutoffs: above log(2^128) the result is +inf, below
// log(2^-150) +0, below log(2^-149) (glibc's WANT_ERRNO_UFLOW case) the
// least subnormal, which is __math_may_uflowf's 0x1.4p-75f squared.
constexpr float kExpOverflow = 0x1.62e42ep6f;
constexpr float kExpZero = -0x1.9fe368p6f;
constexpr float kExpLeastSubnormal = -0x1.9d1d9ep6f;

SPECDAG_NO_CONTRACT float exp_one(float x) {
  const std::uint32_t abstop = (bits(x) >> 20) & 0x7ff;
  if (abstop >= bits(88.0f) >> 20) {
    if (bits(x) == bits(-kInf)) return 0.0f;
    if (abstop >= bits(kInf) >> 20) return x + x;
    if (x > kExpOverflow) return kInf;
    if (x < kExpZero) return 0.0f;
    if (x < kExpLeastSubnormal) return 0x1p-149f;
  }
  const double xd = x;
  double kd = std::fma(kExpInvLn2N, xd, kExpShift);
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd);
  kd -= kExpShift;
  const double r = std::fma(kExpInvLn2N, xd, -kd);
  const double s = std::bit_cast<double>(kExpTab[ki % 32] + (ki << 47));
  const double z = std::fma(kExpC0, r, kExpC1);
  const double r2 = r * r;
  double y = std::fma(kExpC2, r, 1.0);
  y = std::fma(z, r2, y);
  return static_cast<float>(y * s);
}

// fdlibm's constants, as bit patterns.
constexpr float kLn2Hi = from_bits(0x3f317180), kLn2Lo = from_bits(0x3717f7d1),
                kInvLn2 = from_bits(0x3fb8aa3b), kQ1 = from_bits(0xbd088889),
                kQ2 = from_bits(0x3ad00d01), kQ3 = from_bits(0xb8a670cd),
                kQ4 = from_bits(0x36867e54), kQ5 = from_bits(0xb457edbb);
constexpr float kHuge = 1.0e+30f, kTiny = 1.0e-30f;

// x with k added to its exponent field.
float scale_exponent(float x, std::int32_t k) {
  return from_bits(bits(x) + (static_cast<std::uint32_t>(k) << 23));
}

// expm1f (fdlibm s_expm1f.c) on the arguments tanh passes it: 2|x| in
// [2, 44) or -2|x| in (-2, -2^-54]. Its other branches (the non-finite and
// overflow filters, and k = 1, which needs 0.5·ln2 < x < 1.5·ln2) are left
// out; the split at |x| = 1.5·ln2 always gives k = -1.
SPECDAG_NO_CONTRACT float expm1_for_tanh(float x) {
  const std::uint32_t hx = bits(x) & 0x7fffffff;
  std::int32_t k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218) {  // |x| > 0.5·ln2
    float hi, lo;
    if (hx < 0x3f851592) {  // and |x| < 1.5·ln2, x < 0
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (bits(x) >> 31 ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000) {  // |x| < 2^-25
    const float t = kHuge + x;
    return x - (t - kHuge);
  }
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return scale_exponent(1.0f - (e - x), k) - 1.0f;
  if (k < 23) return scale_exponent(from_bits(0x3f800000 - (0x1000000 >> k)) - (e - x), k);
  return scale_exponent(x - (e + from_bits((0x7f - k) << 23)) + 1.0f, k);
}

// tanhf (fdlibm s_tanhf.c).
SPECDAG_NO_CONTRACT float tanh_one(float x) {
  const std::uint32_t ix = bits(x) & 0x7fffffff;
  const bool negative = bits(x) >> 31;
  if (ix >= 0x7f800000) return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;  // inf, NaN
  float z;
  if (ix < 0x41b00000) {  // |x| < 22
    if (ix == 0) return x;
    if (ix < 0x24000000) return x * (1.0f + x);  // |x| < 2^-55
    if (ix >= 0x3f800000) {                      // |x| >= 1
      const float t = expm1_for_tanh(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1_for_tanh(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  } else {
    z = 1.0f - kTiny;
  }
  return negative ? -z : z;
}

SPECDAG_NO_CONTRACT float sigmoid_one(float x) { return 1.0f / (1.0f + exp_one(-x)); }

void exp_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) y[j] = exp_one(x[j]);
}

void sigmoid_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) y[j] = sigmoid_one(x[j]);
}

void tanh_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) y[j] = tanh_one(x[j]);
}

#undef SPECDAG_NO_CONTRACT

constexpr Backend kScalar{"scalar", gemm_scalar, sgd_step_scalar, relu_forward_scalar,
                          relu_backward_mask_scalar, exp_scalar, sigmoid_scalar, tanh_scalar};

#if SPECDAG_LANES_X86

// --------------------------------------------------------------- SSE2 ---
// (baseline for x86-64, no target attribute needed)

// Each block of C (up to 2 rows x 4 vectors) stays in registers across the
// whole kk loop: the adds into independent accumulators overlap, and each
// B row segment is loaded once for both rows. Every element still gets its
// terms one kk at a time, in order, so the result is the scalar one.
template <std::size_t R, std::size_t V>
inline void gemm_block_sse2(const GemmArgs& g, std::size_t i, std::size_t j) {
  const std::size_t n = g.n, a_row = g.a_row_stride, a_k = g.a_k_stride;
  float* c = g.c + i * n + j;
  __m128 acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] = g.accumulate ? _mm_loadu_ps(c + r * n + 4 * v) : _mm_setzero_ps();
    }
  }
  for (std::size_t kk = 0; kk < g.k; ++kk) {
    const float* a = g.a + i * a_row + kk * a_k;
    const float* b = g.b + kk * n + j;
    __m128 bv[V];
    for (std::size_t v = 0; v < V; ++v) bv[v] = _mm_loadu_ps(b + 4 * v);
    for (std::size_t r = 0; r < R; ++r) {
      const float s = a[r * a_row];
      if (s == 0.0f) continue;
      const __m128 vs = _mm_set1_ps(s);
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm_add_ps(acc[r][v], _mm_mul_ps(vs, bv[v]));
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) _mm_storeu_ps(c + r * n + 4 * v, acc[r][v]);
  }
}

template <std::size_t R>
inline void gemm_rows_sse2(const GemmArgs& g, std::size_t i) {
  std::size_t j = 0;
  for (; j + 16 <= g.n; j += 16) gemm_block_sse2<R, 4>(g, i, j);
  for (; j + 4 <= g.n; j += 4) gemm_block_sse2<R, 1>(g, i, j);
}

void gemm_sse2(const GemmArgs& g) {
  std::size_t i = 0;
  for (; i + 2 <= g.m; i += 2) gemm_rows_sse2<2>(g, i);
  if (i < g.m) gemm_rows_sse2<1>(g, i);
  gemm_columns_scalar(g, g.n / 4 * 4);
}

void sgd_step_sse2(float* w, float* g, float lr, std::size_t n) {
  const __m128 vlr = _mm_set1_ps(lr);
  const __m128 zero = _mm_setzero_ps();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128 vw = _mm_loadu_ps(w + j);
    const __m128 vg = _mm_loadu_ps(g + j);
    _mm_storeu_ps(w + j, _mm_sub_ps(vw, _mm_mul_ps(vlr, vg)));
    _mm_storeu_ps(g + j, zero);
  }
  for (; j < n; ++j) {
    w[j] -= lr * g[j];
    g[j] = 0.0f;
  }
}

void relu_forward_sse2(const float* x, float* y, std::size_t n) {
  const __m128 zero = _mm_setzero_ps();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128 v = _mm_loadu_ps(x + j);
    // x > 0 ? x : 0 — a mask-and, so -0.0 and NaN land exactly where the
    // scalar ternary puts them (+0.0).
    _mm_storeu_ps(y + j, _mm_and_ps(v, _mm_cmpgt_ps(v, zero)));
  }
  for (; j < n; ++j) y[j] = x[j] > 0.0f ? x[j] : 0.0f;
}

void relu_backward_mask_sse2(const float* x, float* g, std::size_t n) {
  const __m128 zero = _mm_setzero_ps();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128 v = _mm_loadu_ps(x + j);
    const __m128 vg = _mm_loadu_ps(g + j);
    // Zero g where x <= 0; NaN compares false, so its gradient survives,
    // matching the scalar `if (x <= 0) g = 0`.
    _mm_storeu_ps(g + j, _mm_andnot_ps(_mm_cmple_ps(v, zero), vg));
  }
  for (; j < n; ++j) {
    if (x[j] <= 0.0f) g[j] = 0.0f;
  }
}

// --------------------------------------------------------------- AVX2 ---

// The SSE2 blocking at twice the width: a 2x32 block of C in eight ymm
// accumulators.
template <std::size_t R, std::size_t V>
__attribute__((target("avx2"))) inline void gemm_block_avx2(const GemmArgs& g, std::size_t i,
                                                            std::size_t j) {
  const std::size_t n = g.n, a_row = g.a_row_stride, a_k = g.a_k_stride;
  float* c = g.c + i * n + j;
  __m256 acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] = g.accumulate ? _mm256_loadu_ps(c + r * n + 8 * v) : _mm256_setzero_ps();
    }
  }
  for (std::size_t kk = 0; kk < g.k; ++kk) {
    const float* a = g.a + i * a_row + kk * a_k;
    const float* b = g.b + kk * n + j;
    __m256 bv[V];
    for (std::size_t v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(b + 8 * v);
    for (std::size_t r = 0; r < R; ++r) {
      const float s = a[r * a_row];
      if (s == 0.0f) continue;
      const __m256 vs = _mm256_set1_ps(s);
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(vs, bv[v]));
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) _mm256_storeu_ps(c + r * n + 8 * v, acc[r][v]);
  }
}

template <std::size_t R>
__attribute__((target("avx2"))) inline void gemm_rows_avx2(const GemmArgs& g, std::size_t i) {
  std::size_t j = 0;
  for (; j + 32 <= g.n; j += 32) gemm_block_avx2<R, 4>(g, i, j);
  for (; j + 8 <= g.n; j += 8) gemm_block_avx2<R, 1>(g, i, j);
}

__attribute__((target("avx2"))) void gemm_avx2(const GemmArgs& g) {
  std::size_t i = 0;
  for (; i + 2 <= g.m; i += 2) gemm_rows_avx2<2>(g, i);
  if (i < g.m) gemm_rows_avx2<1>(g, i);
  gemm_columns_scalar(g, g.n / 8 * 8);
}

__attribute__((target("avx2"))) void sgd_step_avx2(float* w, float* g, float lr,
                                                   std::size_t n) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 zero = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vw = _mm256_loadu_ps(w + j);
    const __m256 vg = _mm256_loadu_ps(g + j);
    _mm256_storeu_ps(w + j, _mm256_sub_ps(vw, _mm256_mul_ps(vlr, vg)));
    _mm256_storeu_ps(g + j, zero);
  }
  for (; j < n; ++j) {
    w[j] -= lr * g[j];
    g[j] = 0.0f;
  }
}

__attribute__((target("avx2"))) void relu_forward_avx2(const float* x, float* y,
                                                       std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_loadu_ps(x + j);
    _mm256_storeu_ps(y + j, _mm256_and_ps(v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ)));
  }
  for (; j < n; ++j) y[j] = x[j] > 0.0f ? x[j] : 0.0f;
}

__attribute__((target("avx2"))) void relu_backward_mask_avx2(const float* x, float* g,
                                                             std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_loadu_ps(x + j);
    const __m256 vg = _mm256_loadu_ps(g + j);
    _mm256_storeu_ps(g + j, _mm256_andnot_ps(_mm256_cmp_ps(v, zero, _CMP_LE_OQ), vg));
  }
  for (; j < n; ++j) {
    if (x[j] <= 0.0f) g[j] = 0.0f;
  }
}

// The element functions, 8 lanes at a time, each the scalar reference's
// operations with every branch computed and the lanes blended by mask.
// exp needs FMA; no other multiply and add may contract into one.
#if defined(__clang__)
#define SPECDAG_AVX2_FMA __attribute__((target("avx2,fma")))
#else
#define SPECDAG_AVX2_FMA __attribute__((target("avx2,fma"), optimize("fp-contract=off")))
#endif

// exp_one's regular path on 4 floats in double lanes.
SPECDAG_AVX2_FMA inline __m128 exp_core_avx2(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d shift = _mm256_set1_pd(kExpShift), invln2n = _mm256_set1_pd(kExpInvLn2N);
  __m256d kd = _mm256_fmadd_pd(invln2n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(invln2n, xd, kd);
  const __m256i t = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kExpTab),
                                           _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kExpC0), r, _mm256_set1_pd(kExpC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kExpC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

SPECDAG_AVX2_FMA inline __m256 i2f(__m256i x) { return _mm256_castsi256_ps(x); }
SPECDAG_AVX2_FMA inline __m256i f2i(__m256 x) { return _mm256_castps_si256(x); }
SPECDAG_AVX2_FMA inline __m256i splat(std::int32_t v) { return _mm256_set1_epi32(v); }
SPECDAG_AVX2_FMA inline __m256 splat(float v) { return _mm256_set1_ps(v); }
SPECDAG_AVX2_FMA inline __m256 neg_avx2(__m256 x) { return _mm256_xor_ps(x, splat(-0.0f)); }

// blend(y, v, m): v in the lanes where m is set, y elsewhere.
SPECDAG_AVX2_FMA inline __m256 blend(__m256 y, __m256 v, __m256 m) {
  return _mm256_blendv_ps(y, v, m);
}
SPECDAG_AVX2_FMA inline __m256 blend(__m256 y, __m256 v, __m256i m) {
  return _mm256_blendv_ps(y, v, i2f(m));
}

SPECDAG_AVX2_FMA inline __m256 exp8_avx2(__m256 x) {
  __m256 y = _mm256_set_m128(exp_core_avx2(_mm256_extractf128_ps(x, 1)),
                             exp_core_avx2(_mm256_castps256_ps128(x)));
  y = blend(y, splat(0x1p-149f), _mm256_cmp_ps(x, splat(kExpLeastSubnormal), _CMP_LT_OQ));
  y = blend(y, _mm256_setzero_ps(), _mm256_cmp_ps(x, splat(kExpZero), _CMP_LT_OQ));
  y = blend(y, splat(kInf), _mm256_cmp_ps(x, splat(kExpOverflow), _CMP_GT_OQ));
  return blend(y, _mm256_add_ps(x, x), _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

SPECDAG_AVX2_FMA inline __m256 sigmoid8_avx2(__m256 x) {
  return _mm256_div_ps(splat(1.0f), _mm256_add_ps(splat(1.0f), exp8_avx2(neg_avx2(x))));
}

// v with k added to its exponent field, k23 = k << 23.
SPECDAG_AVX2_FMA inline __m256 scale_exponent_avx2(__m256 v, __m256i k23) {
  return i2f(_mm256_add_epi32(f2i(v), k23));
}

// expm1_for_tanh. k is -1 between 0.5·ln2 and 1.5·ln2, the rounded quotient
// above, and 0 below, where the reduction leaves x as it is.
SPECDAG_AVX2_FMA inline __m256 expm1_for_tanh_avx2(__m256 x) {
  const __m256i hx = _mm256_and_si256(f2i(x), splat(0x7fffffff));
  const __m256i reduce = _mm256_cmpgt_epi32(hx, splat(0x3eb17218));
  const __m256 half = _mm256_or_ps(splat(0.5f), _mm256_and_ps(x, splat(-0.0f)));
  __m256i k = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(splat(kInvLn2), x), half));
  k = _mm256_blendv_epi8(k, splat(-1), _mm256_cmpgt_epi32(splat(0x3f851592), hx));
  k = _mm256_and_si256(k, reduce);
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(x, _mm256_mul_ps(t, splat(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(t, splat(kLn2Lo));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);
  const __m256 tiny =
      _mm256_sub_ps(x, _mm256_sub_ps(_mm256_add_ps(splat(kHuge), x), splat(kHuge)));
  x = blend(x, xr, reduce);

  const __m256 one = splat(1.0f), half_p = splat(0.5f);
  const __m256 hfx = _mm256_mul_ps(half_p, x);
  const __m256 hxs = _mm256_mul_ps(x, hfx);
  __m256 r1 = _mm256_add_ps(splat(kQ4), _mm256_mul_ps(hxs, splat(kQ5)));
  r1 = _mm256_add_ps(splat(kQ3), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(splat(kQ2), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(splat(kQ1), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, r1));
  const __m256 tt = _mm256_sub_ps(splat(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(hxs, _mm256_div_ps(_mm256_sub_ps(r1, tt),
                                              _mm256_sub_ps(splat(6.0f), _mm256_mul_ps(x, tt))));
  const __m256 k0 = _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));
  e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c), hxs);

  const __m256i k23 = _mm256_slli_epi32(k, 23);
  const __m256 two_k = i2f(_mm256_slli_epi32(_mm256_sub_epi32(splat(0x7f), k), 23));
  __m256 y = scale_exponent_avx2(_mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e, two_k)), one), k23);
  const __m256 one_minus =
      i2f(_mm256_sub_epi32(splat(0x3f800000), _mm256_srlv_epi32(splat(0x1000000), k)));
  const __m256 e_x = _mm256_sub_ps(e, x);
  y = blend(y, scale_exponent_avx2(_mm256_sub_ps(one_minus, e_x), k23),
            _mm256_cmpgt_epi32(splat(23), k));
  y = blend(y, _mm256_sub_ps(scale_exponent_avx2(_mm256_sub_ps(one, e_x), k23), one),
            _mm256_or_si256(_mm256_cmpgt_epi32(splat(-1), k), _mm256_cmpgt_epi32(k, splat(56))));
  y = blend(y, _mm256_sub_ps(_mm256_mul_ps(half_p, _mm256_sub_ps(x, e)), half_p),
            _mm256_cmpeq_epi32(k, splat(-1)));
  y = blend(y, k0, _mm256_cmpeq_epi32(k, splat(0)));
  return blend(y, tiny, _mm256_cmpgt_epi32(splat(0x33000000), hx));
}

SPECDAG_AVX2_FMA inline __m256 tanh8_avx2(__m256 x) {
  const __m256 one = splat(1.0f), two = splat(2.0f);
  const __m256 sign = _mm256_and_ps(x, splat(-0.0f));
  const __m256i ix = _mm256_and_si256(f2i(x), splat(0x7fffffff));
  const __m256i big = _mm256_cmpgt_epi32(ix, splat(0x3f7fffff));  // |x| >= 1
  const __m256 ax = i2f(ix);
  const __m256 t = expm1_for_tanh_avx2(
      blend(_mm256_mul_ps(splat(-2.0f), ax), _mm256_mul_ps(two, ax), big));
  // 1 - 2/(t + 2) or -t/(t + 2): one divide, of each lane's own numerator.
  const __m256 q = _mm256_div_ps(blend(neg_avx2(t), two, big), _mm256_add_ps(t, two));
  __m256 z = blend(q, _mm256_sub_ps(one, q), big);
  z = blend(z, splat(1.0f - kTiny), _mm256_cmpgt_epi32(ix, splat(0x41afffff)));
  z = _mm256_xor_ps(z, sign);
  z = blend(z, _mm256_mul_ps(x, _mm256_add_ps(one, x)), _mm256_cmpgt_epi32(splat(0x24000000), ix));
  z = blend(z, x, _mm256_cmpeq_epi32(ix, splat(0)));
  const __m256i special = _mm256_cmpgt_epi32(ix, splat(0x7f7fffff));  // inf, NaN
  if (_mm256_testz_si256(special, special)) return z;
  const __m256 inv = _mm256_div_ps(one, x);
  return blend(z, blend(_mm256_add_ps(inv, one), _mm256_sub_ps(inv, one), sign), special);
}

// f over n floats: full vectors, then one masked load and store.
template <__m256 (*F)(__m256)>
SPECDAG_AVX2_FMA void map_avx2(const float* x, float* y, std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) _mm256_storeu_ps(y + j, F(_mm256_loadu_ps(x + j)));
  if (j == n) return;
  const __m256i m = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - j)),
                                       _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  _mm256_maskstore_ps(y + j, m, F(_mm256_maskload_ps(x + j, m)));
}

#undef SPECDAG_AVX2_FMA

// ------------------------------------------------------------ AVX-512 ---
//
// GCC contracts `add(acc, mul(s, b))` into an FMA wherever the target has
// one, and avx512f implies it, so every function here also switches FP
// contraction off for itself: the build's own flags may not (perfbench
// compiles src/ with its own). Clang's default contracts only within one
// expression of one function body, which the intrinsics' bodies never form.
#if defined(__clang__)
#define SPECDAG_AVX512 __attribute__((target("avx512f")))
#else
#define SPECDAG_AVX512 __attribute__((target("avx512f"), optimize("fp-contract=off")))
#endif

// Mask of the first min(count, 16) lanes.
SPECDAG_AVX512 inline __mmask16 lane_mask(std::size_t count) {
  return count >= 16 ? __mmask16{0xFFFF} : static_cast<__mmask16>((1u << count) - 1u);
}

// A block of R <= 8 rows x V <= 2 zmm vectors of C in R*V accumulators across
// the whole kk loop (the unroll pragmas let GCC keep all 16 in registers;
// without them it spills every block above 2 x 2). The last vector of each
// row loads and stores through `tail`, so a block ends exactly at its last
// column and nothing is left for the scalar loop.
template <std::size_t R, std::size_t V>
SPECDAG_AVX512 inline void gemm_block_avx512(const GemmArgs& g, std::size_t i, std::size_t j,
                                             __mmask16 tail) {
  const std::size_t n = g.n, a_row = g.a_row_stride, a_k = g.a_k_stride;
  float* c = g.c + i * n + j;
  const auto mask = [tail](std::size_t v) { return v + 1 == V ? tail : __mmask16{0xFFFF}; };
  __m512 acc[R][V];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] = g.accumulate ? _mm512_maskz_loadu_ps(mask(v), c + r * n + 16 * v)
                               : _mm512_setzero_ps();
    }
  }
  for (std::size_t kk = 0; kk < g.k; ++kk) {
    const float* a = g.a + i * a_row + kk * a_k;
    const float* b = g.b + kk * n + j;
    __m512 bv[V];
    for (std::size_t v = 0; v < V; ++v) bv[v] = _mm512_maskz_loadu_ps(mask(v), b + 16 * v);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const float s = a[r * a_row];
      if (s == 0.0f) continue;
      const __m512 vs = _mm512_set1_ps(s);
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(vs, bv[v]));
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      _mm512_mask_storeu_ps(c + r * n + 16 * v, mask(v), acc[r][v]);
    }
  }
}

// Every column of R rows: 32-column blocks, then one block of one or two
// vectors for the rest, its last vector masked.
template <std::size_t R>
SPECDAG_AVX512 inline void gemm_rows_avx512(const GemmArgs& g, std::size_t i) {
  std::size_t j = 0;
  for (; j + 32 <= g.n; j += 32) gemm_block_avx512<R, 2>(g, i, j, lane_mask(16));
  const std::size_t rest = g.n - j;
  if (rest > 16) {
    gemm_block_avx512<R, 2>(g, i, j, lane_mask(rest - 16));
  } else if (rest > 0) {
    gemm_block_avx512<R, 1>(g, i, j, lane_mask(rest));
  }
}

SPECDAG_AVX512 void gemm_avx512(const GemmArgs& g) {
  std::size_t i = 0;
  for (; i + 8 <= g.m; i += 8) gemm_rows_avx512<8>(g, i);
  switch (g.m - i) {
    case 7: gemm_rows_avx512<7>(g, i); break;
    case 6: gemm_rows_avx512<6>(g, i); break;
    case 5: gemm_rows_avx512<5>(g, i); break;
    case 4: gemm_rows_avx512<4>(g, i); break;
    case 3: gemm_rows_avx512<3>(g, i); break;
    case 2: gemm_rows_avx512<2>(g, i); break;
    case 1: gemm_rows_avx512<1>(g, i); break;
    default: break;
  }
}

// The element kernels: full vectors, then one masked vector for the rest.
SPECDAG_AVX512 void sgd_step_avx512(float* w, float* g, float lr, std::size_t n) {
  const __m512 vlr = _mm512_set1_ps(lr);
  const __m512 zero = _mm512_setzero_ps();
  for (std::size_t j = 0; j < n; j += 16) {
    const __mmask16 m = lane_mask(n - j);
    const __m512 vw = _mm512_maskz_loadu_ps(m, w + j);
    const __m512 vg = _mm512_maskz_loadu_ps(m, g + j);
    _mm512_mask_storeu_ps(w + j, m, _mm512_sub_ps(vw, _mm512_mul_ps(vlr, vg)));
    _mm512_mask_storeu_ps(g + j, m, zero);
  }
}

SPECDAG_AVX512 void relu_forward_avx512(const float* x, float* y, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  for (std::size_t j = 0; j < n; j += 16) {
    const __mmask16 m = lane_mask(n - j);
    const __m512 v = _mm512_maskz_loadu_ps(m, x + j);
    // x > 0 ? x : 0 — -0.0 and NaN compare false and become +0.0.
    const __mmask16 positive = _mm512_cmp_ps_mask(v, zero, _CMP_GT_OQ);
    _mm512_mask_storeu_ps(y + j, m, _mm512_maskz_mov_ps(positive, v));
  }
}

SPECDAG_AVX512 void relu_backward_mask_avx512(const float* x, float* g, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  for (std::size_t j = 0; j < n; j += 16) {
    const __mmask16 m = lane_mask(n - j);
    const __m512 v = _mm512_maskz_loadu_ps(m, x + j);
    const __m512 vg = _mm512_maskz_loadu_ps(m, g + j);
    // Zero g where x <= 0; NaN compares false and keeps its gradient.
    const __mmask16 dead = _mm512_cmp_ps_mask(v, zero, _CMP_LE_OQ);
    _mm512_mask_storeu_ps(g + j, m, _mm512_mask_mov_ps(vg, dead, zero));
  }
}

// The element functions, 16 lanes at a time, in the AVX2 backend's way.
// GCC 12 reads the `__Y = __Y` placeholders of avx512fintrin.h's
// conversions and blends as uninitialized; the warning is spurious.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
// exp_one's regular path on 8 floats in double lanes, with the table in
// four registers: two 16-entry permutes, and bit 4 of k picks one.
SPECDAG_AVX512 inline __m256 exp_core_avx512(__m256 x, const __m512i tab[4]) {
  const __m512d xd = _mm512_cvtps_pd(x);
  const __m512d shift = _mm512_set1_pd(kExpShift), invln2n = _mm512_set1_pd(kExpInvLn2N);
  __m512d kd = _mm512_fmadd_pd(invln2n, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = _mm512_sub_pd(kd, shift);
  const __m512d r = _mm512_fmsub_pd(invln2n, xd, kd);
  const __m512i t = _mm512_mask_blend_epi64(_mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)),
                                            _mm512_permutex2var_epi64(tab[0], ki, tab[1]),
                                            _mm512_permutex2var_epi64(tab[2], ki, tab[3]));
  const __m512d s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64(ki, 47)));
  const __m512d z = _mm512_fmadd_pd(_mm512_set1_pd(kExpC0), r, _mm512_set1_pd(kExpC1));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_fmadd_pd(_mm512_set1_pd(kExpC2), r, _mm512_set1_pd(1.0));
  y = _mm512_fmadd_pd(z, r2, y);
  return _mm512_cvtpd_ps(_mm512_mul_pd(y, s));
}

SPECDAG_AVX512 inline __m512 exp16_avx512(__m512 x) {
  const __m512i tab[4] = {_mm512_loadu_si512(kExpTab), _mm512_loadu_si512(kExpTab + 8),
                          _mm512_loadu_si512(kExpTab + 16), _mm512_loadu_si512(kExpTab + 24)};
  const __m256 lo = exp_core_avx512(_mm512_castps512_ps256(x), tab);
  const __m256 hi =
      exp_core_avx512(_mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(x), 1)), tab);
  __m512 y = _mm512_castpd_ps(
      _mm512_insertf64x4(_mm512_castps_pd(_mm512_castps256_ps512(lo)), _mm256_castps_pd(hi), 1));
  y = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, _mm512_set1_ps(kExpLeastSubnormal), _CMP_LT_OQ),
                           y, _mm512_set1_ps(0x1p-149f));
  y = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, _mm512_set1_ps(kExpZero), _CMP_LT_OQ), y,
                           _mm512_setzero_ps());
  y = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, _mm512_set1_ps(kExpOverflow), _CMP_GT_OQ), y,
                           _mm512_set1_ps(kInf));
  return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q), y, _mm512_add_ps(x, x));
}

SPECDAG_AVX512 inline __m512 neg_avx512(__m512 x) {
  return _mm512_castsi512_ps(
      _mm512_xor_epi32(_mm512_castps_si512(x), _mm512_set1_epi32(INT32_MIN)));
}

SPECDAG_AVX512 inline __m512 sigmoid16_avx512(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  return _mm512_div_ps(one, _mm512_add_ps(one, exp16_avx512(neg_avx512(x))));
}

SPECDAG_AVX512 inline __m512 scale_exponent_avx512(__m512 v, __m512i k23) {
  return _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(v), k23));
}

SPECDAG_AVX512 inline __m512 expm1_for_tanh_avx512(__m512 x) {
  const __m512i xi = _mm512_castps_si512(x);
  const __m512i hx = _mm512_and_epi32(xi, _mm512_set1_epi32(0x7fffffff));
  const __mmask16 reduce = _mm512_cmpgt_epi32_mask(hx, _mm512_set1_epi32(0x3eb17218));
  const __m512 half = _mm512_castsi512_ps(_mm512_or_epi32(
      _mm512_castps_si512(_mm512_set1_ps(0.5f)), _mm512_and_epi32(xi, _mm512_set1_epi32(INT32_MIN))));
  __m512i k = _mm512_cvttps_epi32(_mm512_add_ps(_mm512_mul_ps(_mm512_set1_ps(kInvLn2), x), half));
  k = _mm512_mask_mov_epi32(k, _mm512_cmplt_epi32_mask(hx, _mm512_set1_epi32(0x3f851592)), _mm512_set1_epi32(-1));
  k = _mm512_maskz_mov_epi32(reduce, k);
  const __m512 t = _mm512_cvtepi32_ps(k);
  const __m512 hi = _mm512_sub_ps(x, _mm512_mul_ps(t, _mm512_set1_ps(kLn2Hi)));
  const __m512 lo = _mm512_mul_ps(t, _mm512_set1_ps(kLn2Lo));
  const __m512 xr = _mm512_sub_ps(hi, lo);
  const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo);
  const __m512 tiny = _mm512_sub_ps(x, _mm512_sub_ps(_mm512_add_ps(_mm512_set1_ps(kHuge), x), _mm512_set1_ps(kHuge)));
  x = _mm512_mask_mov_ps(x, reduce, xr);

  const __m512 one = _mm512_set1_ps(1.0f), half_p = _mm512_set1_ps(0.5f);
  const __m512 hfx = _mm512_mul_ps(half_p, x);
  const __m512 hxs = _mm512_mul_ps(x, hfx);
  __m512 r1 = _mm512_add_ps(_mm512_set1_ps(kQ4), _mm512_mul_ps(hxs, _mm512_set1_ps(kQ5)));
  r1 = _mm512_add_ps(_mm512_set1_ps(kQ3), _mm512_mul_ps(hxs, r1));
  r1 = _mm512_add_ps(_mm512_set1_ps(kQ2), _mm512_mul_ps(hxs, r1));
  r1 = _mm512_add_ps(_mm512_set1_ps(kQ1), _mm512_mul_ps(hxs, r1));
  r1 = _mm512_add_ps(one, _mm512_mul_ps(hxs, r1));
  const __m512 tt = _mm512_sub_ps(_mm512_set1_ps(3.0f), _mm512_mul_ps(r1, hfx));
  __m512 e = _mm512_mul_ps(hxs, _mm512_div_ps(_mm512_sub_ps(r1, tt),
                                              _mm512_sub_ps(_mm512_set1_ps(6.0f), _mm512_mul_ps(x, tt))));
  const __m512 k0 = _mm512_sub_ps(x, _mm512_sub_ps(_mm512_mul_ps(x, e), hxs));
  e = _mm512_sub_ps(_mm512_sub_ps(_mm512_mul_ps(x, _mm512_sub_ps(e, c)), c), hxs);

  const __m512i k23 = _mm512_slli_epi32(k, 23);
  const __m512 two_k = _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_sub_epi32(_mm512_set1_epi32(0x7f), k), 23));
  __m512 y =
      scale_exponent_avx512(_mm512_add_ps(_mm512_sub_ps(x, _mm512_add_ps(e, two_k)), one), k23);
  const __m512 one_minus = _mm512_castsi512_ps(
      _mm512_sub_epi32(_mm512_set1_epi32(0x3f800000), _mm512_srlv_epi32(_mm512_set1_epi32(0x1000000), k)));
  const __m512 e_x = _mm512_sub_ps(e, x);
  y = _mm512_mask_mov_ps(y, _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(23)),
                         scale_exponent_avx512(_mm512_sub_ps(one_minus, e_x), k23));
  y = _mm512_mask_mov_ps(
      y, _mm512_cmple_epi32_mask(k, _mm512_set1_epi32(-2)) | _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(56)),
      _mm512_sub_ps(scale_exponent_avx512(_mm512_sub_ps(one, e_x), k23), one));
  y = _mm512_mask_mov_ps(y, _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1)),
                         _mm512_sub_ps(_mm512_mul_ps(half_p, _mm512_sub_ps(x, e)), half_p));
  y = _mm512_mask_mov_ps(y, _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(0)), k0);
  return _mm512_mask_mov_ps(y, _mm512_cmplt_epi32_mask(hx, _mm512_set1_epi32(0x33000000)), tiny);
}

SPECDAG_AVX512 inline __m512 tanh16_avx512(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f), two = _mm512_set1_ps(2.0f);
  const __m512i xi = _mm512_castps_si512(x);
  const __m512i sign = _mm512_and_epi32(xi, _mm512_set1_epi32(INT32_MIN));
  const __m512i ix = _mm512_and_epi32(xi, _mm512_set1_epi32(0x7fffffff));
  const __mmask16 big = _mm512_cmpge_epi32_mask(ix, _mm512_set1_epi32(0x3f800000));  // |x| >= 1
  const __m512 ax = _mm512_castsi512_ps(ix);
  const __m512 t = expm1_for_tanh_avx512(
      _mm512_mask_blend_ps(big, _mm512_mul_ps(_mm512_set1_ps(-2.0f), ax), _mm512_mul_ps(two, ax)));
  // 1 - 2/(t + 2) or -t/(t + 2): one divide, of each lane's own numerator.
  const __m512 q =
      _mm512_div_ps(_mm512_mask_blend_ps(big, neg_avx512(t), two), _mm512_add_ps(t, two));
  __m512 z = _mm512_mask_sub_ps(q, big, one, q);
  z = _mm512_mask_mov_ps(z, _mm512_cmpge_epi32_mask(ix, _mm512_set1_epi32(0x41b00000)), _mm512_set1_ps(1.0f - kTiny));
  z = _mm512_castsi512_ps(_mm512_xor_epi32(_mm512_castps_si512(z), sign));
  z = _mm512_mask_mul_ps(z, _mm512_cmplt_epi32_mask(ix, _mm512_set1_epi32(0x24000000)), x,
                         _mm512_add_ps(one, x));
  z = _mm512_mask_mov_ps(z, _mm512_cmpeq_epi32_mask(ix, _mm512_setzero_si512()), x);
  const __mmask16 special = _mm512_cmpge_epi32_mask(ix, _mm512_set1_epi32(0x7f800000));  // inf, NaN
  if (special == 0) return z;
  const __m512 inv = _mm512_div_ps(one, x);
  const __mmask16 negative = _mm512_test_epi32_mask(sign, sign);
  return _mm512_mask_mov_ps(z, special,
                            _mm512_mask_sub_ps(_mm512_add_ps(inv, one), negative, inv, one));
}

template <__m512 (*F)(__m512)>
SPECDAG_AVX512 void map_avx512(const float* x, float* y, std::size_t n) {
  for (std::size_t j = 0; j < n; j += 16) {
    const __mmask16 m = lane_mask(n - j);
    _mm512_mask_storeu_ps(y + j, m, F(_mm512_maskz_loadu_ps(m, x + j)));
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#undef SPECDAG_AVX512

constexpr Backend kSse2{"sse2", gemm_sse2, sgd_step_sse2, relu_forward_sse2,
                        relu_backward_mask_sse2, exp_scalar, sigmoid_scalar, tanh_scalar};
constexpr Backend kAvx2{"avx2", gemm_avx2, sgd_step_avx2, relu_forward_avx2,
                        relu_backward_mask_avx2, map_avx2<exp8_avx2>, map_avx2<sigmoid8_avx2>,
                        map_avx2<tanh8_avx2>};
constexpr Backend kAvx512{"avx512",
                          gemm_avx512,
                          sgd_step_avx512,
                          relu_forward_avx512,
                          relu_backward_mask_avx512,
                          map_avx512<exp16_avx512>,
                          map_avx512<sigmoid16_avx512>,
                          map_avx512<tanh16_avx512>};

#endif  // SPECDAG_LANES_X86

const Backend& backend_impl() {
  static const Backend backend = host_backends().front();
  return backend;
}

}  // namespace

std::vector<Backend> host_backends() {
  std::vector<Backend> backends;
#if SPECDAG_LANES_X86
  if (__builtin_cpu_supports("avx512f")) backends.push_back(kAvx512);
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    backends.push_back(kAvx2);
  }
  backends.push_back(kSse2);
#endif
  backends.push_back(kScalar);
  return backends;
}

void gemm(const GemmArgs& args) { backend_impl().gemm(args); }

void sgd_step(float* w, float* g, float lr, std::size_t n) {
  backend_impl().sgd_step(w, g, lr, n);
}

void relu_forward(const float* x, float* y, std::size_t n) {
  backend_impl().relu_forward(x, y, n);
}

void relu_backward_mask(const float* x, float* g, std::size_t n) {
  backend_impl().relu_backward_mask(x, g, n);
}

void exp(const float* x, float* y, std::size_t n) { backend_impl().exp(x, y, n); }

void sigmoid(const float* x, float* y, std::size_t n) { backend_impl().sigmoid(x, y, n); }

void tanh(const float* x, float* y, std::size_t n) { backend_impl().tanh(x, y, n); }

float exp_ref(float x) { return exp_one(x); }

float sigmoid_ref(float x) { return sigmoid_one(x); }

float tanh_ref(float x) { return tanh_one(x); }

const char* backend() { return backend_impl().name; }

}  // namespace specdag::lanes
