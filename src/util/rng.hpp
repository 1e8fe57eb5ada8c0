// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the library takes an explicit Rng& so that a
// whole experiment is reproducible from one root seed. Rng also supports
// deterministic forking (`fork`) so independent components (clients, data
// generators) get decorrelated but reproducible streams.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iosfwd>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace specdag {

// MT19937-64 (Matsumoto & Nishimura), word for word the engine libstdc++
// names std::mt19937_64: the same seeding, twist and tempering, so every
// output stream is the standard one, and the same stream text format (312
// state words, then the read index, space-separated), so checkpoints that
// hold std::mt19937_64 text load into it and vice versa. Unlike the
// standard engine its state is visible: bulk samplers temper words straight
// out of `state` and advance `index` themselves.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type value = default_seed) { seed(value); }
  void seed(result_type value);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index >= kStateSize) twist();
    return temper(state[index++]);
  }

  // Regenerates all kStateSize words and restarts `index` at 0.
  void twist();

  static constexpr result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

  // Untempered words; the next output is temper(state[index]), and
  // index == kStateSize means the next output twists first.
  std::array<result_type, kStateSize> state{};
  std::size_t index = kStateSize;
};

// std::mt19937_64's text format. Reading sets failbit on a read index past
// kStateSize, which the standard engine never writes.
std::ostream& operator<<(std::ostream& os, const Mt19937_64& engine);
std::istream& operator>>(std::istream& is, Mt19937_64& engine);

// Wrapper around a 64-bit Mersenne twister with convenience sampling helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) : engine_(seed), seed_(seed) {}

  // Underlying engine access (for use with std:: distributions).
  Mt19937_64& engine() { return engine_; }
  const Mt19937_64& engine() const { return engine_; }

  std::uint64_t seed() const { return seed_; }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
  }

  // Uniform index in [0, n).
  std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  // Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  // Standard normal scaled to (mean, stddev). Each call runs a fresh
  // polar-method distribution, so the second value of its pair is dropped.
  double normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  // Writes exactly the n values, and leaves the engine exactly where, n
  // successive normal(mean, stddev) calls would, at a fraction of the cost.
  void fill_normal(double* out, std::size_t n, double mean, double stddev);

  bool bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  // Samples an index proportionally to the (non-negative) weights.
  // Throws if all weights are zero or any weight is negative.
  std::size_t weighted_index(std::span<const double> weights);

  // Samples k distinct indices uniformly from [0, n) (partial Fisher-Yates).
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  // Draws from a symmetric Dirichlet distribution of dimension `dim` with
  // concentration `alpha` (used by the Pachinko Allocation Method).
  std::vector<double> dirichlet(std::size_t dim, double alpha);

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  // Deterministically derives an independent child stream. Streams forked
  // with distinct tags from the same parent are decorrelated.
  Rng fork(std::uint64_t tag) const;

 private:
  Mt19937_64 engine_;
  std::uint64_t seed_;
};

// SplitMix64 — used to derive fork seeds; public for testability.
std::uint64_t splitmix64(std::uint64_t x);

// Bulk normal draws: Marsaglia and Bray's polar method exactly as
// libstdc++'s normal distribution runs it in Rng::normal, one fresh
// distribution per draw. Each attempt takes two engine outputs u1, u2, maps each through
// generate_canonical (double(u) * 2^-64, clamped below 1) to x = 2u1 - 1 and
// y = 2u2 - 1, and is accepted when 0 < r2 = x*x + y*y <= 1; the draw is
// then y * sqrt(-2 * log(r2) / r2) * stddev + mean. Since every attempt
// takes exactly two outputs, the attempts can be scanned in bulk straight
// from the engine's state, with runtime SIMD dispatch (AVX-512 -> scalar) in
// the style of the tensor lanes.
namespace normal_fill {

struct Backend {
  const char* name;
  // Scans `pairs` attempts from the untempered words words[0..2*pairs) and
  // stores y and r2 of each accepted one, stopping right after the `want`-th
  // acceptance (want >= 1) or at the last pair. Returns the pairs scanned
  // and sets *accepted.
  std::size_t (*accept)(const std::uint64_t* words, std::size_t pairs, std::size_t want,
                        double* y, double* r2, std::size_t* accepted);
  // y[i] = y[i] * sqrt(-2 * log_r2[i] / r2[i]) * stddev + mean, in that
  // order of operations; no multiply and add contracts into an FMA.
  void (*finish)(double* y, const double* log_r2, const double* r2, std::size_t n,
                 double mean, double stddev);
};

// Every backend this binary holds that the host CPU can run, the dispatched
// one first and the scalar reference last.
std::vector<Backend> host_backends();

// Name of the dispatched backend: "avx512" or "scalar".
const char* backend();

// Rng::fill_normal on `engine` with a chosen backend.
void fill(Mt19937_64& engine, double* out, std::size_t n, double mean, double stddev,
          const Backend& backend);

}  // namespace normal_fill

}  // namespace specdag
