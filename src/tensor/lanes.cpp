#include "tensor/lanes.hpp"

#include <algorithm>

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

constexpr Backend kScalar{"scalar", gemm_scalar, sgd_step_scalar, relu_forward_scalar,
                          relu_backward_mask_scalar};

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

constexpr Backend kSse2{"sse2", gemm_sse2, sgd_step_sse2, relu_forward_sse2,
                        relu_backward_mask_sse2};
constexpr Backend kAvx2{"avx2", gemm_avx2, sgd_step_avx2, relu_forward_avx2,
                        relu_backward_mask_avx2};

#endif  // SPECDAG_LANES_X86

const Backend& backend_impl() {
  static const Backend backend = host_backends().front();
  return backend;
}

}  // namespace

std::vector<Backend> host_backends() {
  std::vector<Backend> backends;
#if SPECDAG_LANES_X86
  if (__builtin_cpu_supports("avx2")) backends.push_back(kAvx2);
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

const char* backend() { return backend_impl().name; }

}  // namespace specdag::lanes
