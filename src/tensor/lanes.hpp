// Float kernels shared by the scalar layers and the SoA batch executor, with
// runtime SIMD dispatch (AVX-512 -> AVX2 -> SSE2 -> scalar) in the same
// style as the delta codec's XOR backends.
//
// Every SIMD backend is bit-identical to the scalar backend, which defines
// the semantics:
//   * the element kernels (sgd_step, relu_*) are element-independent;
//   * gemm does carry accumulators, so it fixes the arithmetic per element
//     of C: it starts from +0.0f (or from C when accumulating) and receives
//     its terms in kk-ascending order, each as a separate multiply-then-add
//     (never FMA), skipping every term whose A element compares equal to
//     zero. Backends block over rows and columns of C, never over k, so
//     vectorizing cannot change any element's rounding.
//
// AVX-512 blocks up to 8 rows x 32 columns of C and ends every row with a
// masked load and store, so no column is left to a scalar tail; AVX2 and
// SSE2 block 2 rows and hand the last n % 8 or n % 4 columns to the scalar
// loop. No multiply and add may contract into an FMA: the library builds
// with -ffp-contract=off, and the AVX-512 functions switch contraction off
// themselves, since avx512f implies FMA and other builds of src/ (perfbench)
// bring their own flags.
#pragma once

#include <cstddef>
#include <vector>

namespace specdag::lanes {

// One GEMM call: C(m,n) = C0 + A(m,k) * B(k,n). Element (i, kk) of A is
// a[i * a_row_stride + kk * a_k_stride], so A and A^T use the same kernel;
// B and C are dense row-major. C0 is +0.0f, or C's contents when
// `accumulate` is set.
struct GemmArgs {
  const float* a = nullptr;
  std::size_t a_row_stride = 0;
  std::size_t a_k_stride = 0;
  const float* b = nullptr;
  float* c = nullptr;
  std::size_t m = 0, k = 0, n = 0;
  bool accumulate = false;
};
void gemm(const GemmArgs& args);

// w[j] -= lr * g[j]; g[j] = 0  — fused SGD step + grad reset.
void sgd_step(float* w, float* g, float lr, std::size_t n);

// y[j] = x[j] > 0 ? x[j] : 0  (matches the scalar ternary for -0.0 and NaN).
void relu_forward(const float* x, float* y, std::size_t n);

// g[j] = (x[j] <= 0) ? 0 : g[j]  (NaN inputs keep their gradient, like the
// scalar `if (x <= 0) g = 0` it replaces).
void relu_backward_mask(const float* x, float* g, std::size_t n);

// Name of the dispatched backend: "avx512", "avx2", "sse2", or "scalar".
const char* backend();

// One compiled implementation of every kernel above.
struct Backend {
  const char* name;
  void (*gemm)(const GemmArgs&);
  void (*sgd_step)(float*, float*, float, std::size_t);
  void (*relu_forward)(const float*, float*, std::size_t);
  void (*relu_backward_mask)(const float*, float*, std::size_t);
};

// Every backend this binary holds that the host CPU can run, the dispatched
// one first and the scalar reference last — so tests can compare each one
// with the reference directly.
std::vector<Backend> host_backends();

}  // namespace specdag::lanes
