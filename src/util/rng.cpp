#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SPECDAG_NORMAL_X86 1
#include <immintrin.h>
#endif

namespace specdag {

// ---------------------------------------------------------- MT19937-64 ---

void Mt19937_64::seed(result_type value) {
  state[0] = value;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const result_type prev = state[i - 1];
    state[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  index = kStateSize;
}

void Mt19937_64::twist() {
  constexpr std::size_t kShift = 156;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  constexpr result_type kMatrix = 0xB5026F5AA96619E9ULL;
  // Branch-free `(y & 1) ? kMatrix : 0`, so both loops vectorize. The
  // first reads words kShift ahead that it has not rewritten yet; the second
  // reads the ones the first just rewrote.
  auto next = [](result_type cur, result_type succ, result_type far) {
    const result_type y = (cur & kUpper) | (succ & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  for (std::size_t k = 0; k < kStateSize - kShift; ++k) {
    state[k] = next(state[k], state[k + 1], state[k + kShift]);
  }
  for (std::size_t k = kStateSize - kShift; k < kStateSize - 1; ++k) {
    state[k] = next(state[k], state[k + 1], state[k + kShift - kStateSize]);
  }
  state[kStateSize - 1] = next(state[kStateSize - 1], state[0], state[kShift - 1]);
  index = 0;
}

std::ostream& operator<<(std::ostream& os, const Mt19937_64& engine) {
  const std::ios_base::fmtflags flags = os.flags();
  const char fill = os.fill();
  os.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  os.fill(' ');
  for (const std::uint64_t word : engine.state) os << word << ' ';
  os << engine.index;
  os.flags(flags);
  os.fill(fill);
  return os;
}

std::istream& operator>>(std::istream& is, Mt19937_64& engine) {
  const std::ios_base::fmtflags flags = is.flags();
  is.flags(std::ios_base::dec | std::ios_base::skipws);
  Mt19937_64 read;
  for (std::uint64_t& word : read.state) is >> word;
  is >> read.index;
  if (is && read.index > Mt19937_64::kStateSize) is.setstate(std::ios_base::failbit);
  if (is) engine = read;
  is.flags(flags);
  return is;
}

// ----------------------------------------------------------------- Rng ---

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("Rng::weighted_index: empty weights");
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      throw std::invalid_argument("Rng::weighted_index: negative or non-finite weight");
    }
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("Rng::weighted_index: all weights zero");
  double r = uniform(0.0, total);
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // floating-point edge: r == total
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  if (k > n) throw std::invalid_argument("Rng::sample_without_replacement: k > n");
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + index(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::vector<double> Rng::dirichlet(std::size_t dim, double alpha) {
  if (dim == 0) throw std::invalid_argument("Rng::dirichlet: dim == 0");
  if (alpha <= 0.0) throw std::invalid_argument("Rng::dirichlet: alpha <= 0");
  std::gamma_distribution<double> gamma(alpha, 1.0);
  std::vector<double> draw(dim);
  double total = 0.0;
  for (auto& d : draw) {
    d = gamma(engine_);
    total += d;
  }
  if (total <= 0.0) {
    // Extremely small alpha can underflow every gamma draw; fall back to a
    // one-hot sample, which is the limiting distribution.
    std::fill(draw.begin(), draw.end(), 0.0);
    draw[index(dim)] = 1.0;
    return draw;
  }
  for (auto& d : draw) d /= total;
  return draw;
}

Rng Rng::fork(std::uint64_t tag) const {
  return Rng(splitmix64(seed_ ^ splitmix64(tag)));
}

// ------------------------------------------------------ bulk normals ---

namespace normal_fill {
namespace {

// The largest double below 1: generate_canonical's clamp.
constexpr double kBelowOne = 0x1.fffffffffffffp-1;

// std::generate_canonical<double, 53> on the output of an untempered word,
// mapped to [-1, 1) as the polar method does. double(v) is formed from its
// two exact 32-bit halves, so the one rounding is the add's, to nearest like
// the compiler's conversion, but without its branch on the top bit, which
// a random stream mispredicts half the time (half the cost of a scalar
// attempt on fresh state).
inline double signed_canonical(std::uint64_t word) {
  const std::uint64_t v = Mt19937_64::temper(word);
  const double exact = static_cast<double>(static_cast<std::uint32_t>(v >> 32)) * 0x1p32 +
                       static_cast<double>(static_cast<std::uint32_t>(v));
  const double u = std::min(exact * 0x1p-64, kBelowOne);
  return 2.0 * u - 1.0;
}

// ------------------------------------------------------------- scalar ---
//
// The reference: one attempt at a time, in stream order.

std::size_t accept_scalar(const std::uint64_t* words, std::size_t pairs, std::size_t want,
                          double* y, double* r2, std::size_t* accepted) {
  std::size_t got = 0, p = 0;
  while (p < pairs) {
    const double xs = signed_canonical(words[2 * p]);
    const double ys = signed_canonical(words[2 * p + 1]);
    ++p;
    const double r = xs * xs + ys * ys;
    if (r > 1.0 || r == 0.0) continue;
    y[got] = ys;
    r2[got] = r;
    if (++got == want) break;
  }
  *accepted = got;
  return p;
}

void finish_scalar(double* y, const double* log_r2, const double* r2, std::size_t n,
                   double mean, double stddev) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = y[i] * std::sqrt(-2.0 * log_r2[i] / r2[i]) * stddev + mean;
  }
}

constexpr Backend kScalar{"scalar", accept_scalar, finish_scalar};

#if SPECDAG_NORMAL_X86

// ------------------------------------------------------------ AVX-512 ---
//
// Eight attempts per step: two zmm loads of sixteen words, tempered and
// converted (vcvtuqq2pd rounds to nearest like the scalar conversion),
// split into x and y, and tested together. Accepted y and r2 leave through
// mask compress-stores, so they land in stream order. Contraction is off for
// the same reason as in the tensor lanes: avx512f implies FMA, and GCC would
// fuse 2u - 1 and x*x + y*y.
//
// GCC 12 reports the _mm512_undefined_* operand inside the shift, min and
// sqrt intrinsics as maybe-uninitialized; the lanes it fills are never read.
#if defined(__clang__)
#define SPECDAG_NORMAL_AVX512 __attribute__((target("avx512f,avx512dq")))
#else
#define SPECDAG_NORMAL_AVX512 \
  __attribute__((target("avx512f,avx512dq"), optimize("fp-contract=off")))
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

SPECDAG_NORMAL_AVX512 inline __mmask8 first_lanes(std::size_t count) {
  return count >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << count) - 1u);
}

SPECDAG_NORMAL_AVX512 inline __m512d signed_canonical_avx512(__m512i z) {
  z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_srli_epi64(z, 29),
                                           _mm512_set1_epi64(0x5555555555555555LL)));
  z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_slli_epi64(z, 17),
                                           _mm512_set1_epi64(0x71D67FFFEDA60000LL)));
  z = _mm512_xor_si512(
      z, _mm512_and_si512(_mm512_slli_epi64(z, 37),
                          _mm512_set1_epi64(static_cast<long long>(0xFFF7EEE000000000ULL))));
  z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 43));
  const __m512d u = _mm512_min_pd(_mm512_mul_pd(_mm512_cvtepu64_pd(z), _mm512_set1_pd(0x1p-64)),
                                  _mm512_set1_pd(kBelowOne));
  return _mm512_sub_pd(_mm512_mul_pd(_mm512_set1_pd(2.0), u), _mm512_set1_pd(1.0));
}

SPECDAG_NORMAL_AVX512 std::size_t accept_avx512(const std::uint64_t* words, std::size_t pairs,
                                                std::size_t want, double* y, double* r2,
                                                std::size_t* accepted) {
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  const __m512d one = _mm512_set1_pd(1.0), zero = _mm512_setzero_pd();
  std::size_t got = 0, p = 0;
  while (p < pairs) {
    // A short last step loads only its own words.
    const std::size_t lanes = std::min<std::size_t>(8, pairs - p);
    const std::uint64_t* w = words + 2 * p;
    const __m512d a = signed_canonical_avx512(_mm512_maskz_loadu_epi64(first_lanes(2 * lanes), w));
    const __m512d b = lanes > 4 ? signed_canonical_avx512(
                                      _mm512_maskz_loadu_epi64(first_lanes(2 * lanes - 8), w + 8))
                                : zero;
    const __m512d xs = _mm512_permutex2var_pd(a, even, b);
    const __m512d ys = _mm512_permutex2var_pd(a, odd, b);
    const __m512d r = _mm512_add_pd(_mm512_mul_pd(xs, xs), _mm512_mul_pd(ys, ys));
    __mmask8 ok = static_cast<__mmask8>(_mm512_cmp_pd_mask(r, one, _CMP_LE_OQ) &
                                        _mm512_cmp_pd_mask(r, zero, _CMP_NEQ_OQ) &
                                        first_lanes(lanes));
    std::size_t count = static_cast<std::size_t>(__builtin_popcount(ok));
    std::size_t used = lanes;
    if (got + count >= want) {
      // Keep the first want - got acceptances and stop after the last one.
      count = want - got;
      unsigned rest = ok;
      for (std::size_t k = 1; k < count; ++k) rest &= rest - 1;
      const unsigned last = static_cast<unsigned>(__builtin_ctz(rest));
      ok = static_cast<__mmask8>(ok & ((2u << last) - 1u));
      used = last + 1;
    }
    _mm512_mask_compressstoreu_pd(y + got, ok, ys);
    _mm512_mask_compressstoreu_pd(r2 + got, ok, r);
    got += count;
    p += used;
    if (got == want) break;
  }
  *accepted = got;
  return p;
}

SPECDAG_NORMAL_AVX512 void finish_avx512(double* y, const double* log_r2, const double* r2,
                                         std::size_t n, double mean, double stddev) {
  const __m512d one = _mm512_set1_pd(1.0), minus_two = _mm512_set1_pd(-2.0);
  const __m512d vmean = _mm512_set1_pd(mean), vstddev = _mm512_set1_pd(stddev);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 m = first_lanes(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d lg = _mm512_maskz_loadu_pd(m, log_r2 + i);
    const __m512d r = _mm512_mask_loadu_pd(one, m, r2 + i);
    const __m512d mult = _mm512_sqrt_pd(_mm512_div_pd(_mm512_mul_pd(minus_two, lg), r));
    _mm512_mask_storeu_pd(
        y + i, m, _mm512_add_pd(_mm512_mul_pd(_mm512_mul_pd(vy, mult), vstddev), vmean));
  }
}

#undef SPECDAG_NORMAL_AVX512
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

constexpr Backend kAvx512{"avx512", accept_avx512, finish_avx512};

#endif  // SPECDAG_NORMAL_X86

const Backend& backend_impl() {
  static const Backend backend = host_backends().front();
  return backend;
}

}  // namespace

std::vector<Backend> host_backends() {
  std::vector<Backend> backends;
#if SPECDAG_NORMAL_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    backends.push_back(kAvx512);
  }
#endif
  backends.push_back(kScalar);
  return backends;
}

const char* backend() { return backend_impl().name; }

void fill(Mt19937_64& engine, double* out, std::size_t n, double mean, double stddev,
          const Backend& backend) {
  constexpr std::size_t kStateSize = Mt19937_64::kStateSize;
  // Accepted y go straight to `out`; r2 and its log wait here for the
  // output pass, a chunk at a time.
  constexpr std::size_t kChunk = 256;
  double r2[kChunk], log_r2[kChunk];
  while (n > 0) {
    const std::size_t want = std::min(n, kChunk);
    std::size_t got = 0;
    while (got < want) {
      if (engine.index >= kStateSize) engine.twist();
      std::size_t accepted = 0;
      if (engine.index == kStateSize - 1) {
        // The attempt straddles the twist: its second word is the first of
        // the next block.
        std::uint64_t pair[2] = {engine.state[kStateSize - 1], 0};
        engine.twist();
        pair[1] = engine.state[0];
        engine.index = 1;
        backend.accept(pair, 1, want - got, out + got, r2 + got, &accepted);
      } else {
        const std::size_t pairs =
            backend.accept(engine.state.data() + engine.index, (kStateSize - engine.index) / 2,
                           want - got, out + got, r2 + got, &accepted);
        engine.index += 2 * pairs;
      }
      got += accepted;
    }
    for (std::size_t i = 0; i < want; ++i) log_r2[i] = std::log(r2[i]);
    backend.finish(out, log_r2, r2, want, mean, stddev);
    out += want;
    n -= want;
  }
}

}  // namespace normal_fill

void Rng::fill_normal(double* out, std::size_t n, double mean, double stddev) {
  normal_fill::fill(engine_, out, n, mean, stddev, normal_fill::backend_impl());
}

}  // namespace specdag
