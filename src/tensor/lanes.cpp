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

#undef SPECDAG_AVX512

constexpr Backend kSse2{"sse2", gemm_sse2, sgd_step_sse2, relu_forward_sse2,
                        relu_backward_mask_sse2};
constexpr Backend kAvx2{"avx2", gemm_avx2, sgd_step_avx2, relu_forward_avx2,
                        relu_backward_mask_avx2};
constexpr Backend kAvx512{"avx512", gemm_avx512, sgd_step_avx512, relu_forward_avx512,
                          relu_backward_mask_avx512};

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
