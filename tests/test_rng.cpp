#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>

namespace specdag {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 32; ++i) {
    if (a.uniform_int(0, 1 << 30) != b.uniform_int(0, 1 << 30)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntInvalidRangeThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(11);
  std::set<std::size_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, UniformRealInHalfOpenInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(1.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  const std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[rng.weighted_index(weights)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng(29);
  EXPECT_THROW(rng.weighted_index(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index(std::vector<double>{0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index(std::vector<double>{1.0, -1.0}), std::invalid_argument);
}

TEST(Rng, WeightedIndexSingleElement) {
  Rng rng(31);
  EXPECT_EQ(rng.weighted_index(std::vector<double>{5.0}), 0u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(37);
  const auto sample = rng.sample_without_replacement(20, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (std::size_t idx : sample) EXPECT_LT(idx, 20u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(41);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(43);
  for (double alpha : {0.1, 1.0, 10.0}) {
    const auto draw = rng.dirichlet(8, alpha);
    EXPECT_EQ(draw.size(), 8u);
    const double total = std::accumulate(draw.begin(), draw.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (double d : draw) EXPECT_GE(d, 0.0);
  }
}

TEST(Rng, DirichletConcentrationShapesSpread) {
  Rng rng(47);
  // Low alpha -> peaky draws (high max); high alpha -> flat draws.
  double max_low = 0.0, max_high = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const auto low = rng.dirichlet(10, 0.05);
    const auto high = rng.dirichlet(10, 50.0);
    max_low += *std::max_element(low.begin(), low.end());
    max_high += *std::max_element(high.begin(), high.end());
  }
  EXPECT_GT(max_low / trials, 0.7);
  EXPECT_LT(max_high / trials, 0.3);
}

TEST(Rng, DirichletRejectsBadArgs) {
  Rng rng(53);
  EXPECT_THROW(rng.dirichlet(0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.dirichlet(3, 0.0), std::invalid_argument);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(99), b(99);
  Rng fa = a.fork(5), fb = b.fork(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fa.uniform_int(0, 1 << 30), fb.uniform_int(0, 1 << 30));
  }
}

TEST(Rng, ForksWithDifferentTagsDecorrelate) {
  Rng root(99);
  Rng f1 = root.fork(1), f2 = root.fork(2);
  bool any_diff = false;
  for (int i = 0; i < 32; ++i) {
    if (f1.uniform_int(0, 1 << 30) != f2.uniform_int(0, 1 << 30)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a(123), b(123);
  (void)a.fork(77);
  EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(61);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(SplitMix64, KnownNonTrivial) {
  // Distinct inputs map to distinct outputs (sanity, not a full PRNG test).
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(splitmix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

// ---------------------------------------------------------- Mt19937_64 ---

constexpr std::uint64_t kSeeds[] = {0, 1, 42, 5489, 0x9E3779B97F4A7C15ULL, ~0ULL};

template <typename Engine>
std::string engine_text(const Engine& engine) {
  std::ostringstream os;
  os << engine;
  return os.str();
}

TEST(Mt19937_64, MatchesStdEngineOverTenTwists) {
  for (const std::uint64_t seed : kSeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 reference(seed);
    for (std::size_t i = 0; i < 10 * Mt19937_64::kStateSize + 7; ++i) {
      ASSERT_EQ(ours(), reference()) << "seed " << seed << " output " << i;
    }
  }
  EXPECT_EQ(Mt19937_64()(), std::mt19937_64()());
  // The standard's conformance value: the 10000th output of the default seed.
  Mt19937_64 fresh;
  for (int i = 0; i < 9999; ++i) fresh();
  EXPECT_EQ(fresh(), 9981545732273789042ULL);
}

TEST(Mt19937_64, WritesStdText) {
  for (const std::uint64_t seed : kSeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 reference(seed);
    EXPECT_EQ(engine_text(ours), engine_text(reference));  // fresh: index 312
    for (int i = 0; i < 101; ++i) ours(), reference();
    EXPECT_EQ(engine_text(ours), engine_text(reference));  // mid-block
    for (std::size_t i = 101; i < Mt19937_64::kStateSize; ++i) ours(), reference();
    EXPECT_EQ(ours.index, Mt19937_64::kStateSize);
    EXPECT_EQ(engine_text(ours), engine_text(reference));  // twisted, all read
  }
}

TEST(Mt19937_64, WritingLeavesStreamFormattingAlone) {
  std::ostringstream os;
  os << std::hex << std::showbase;
  os.fill('*');
  os << Mt19937_64(3);
  EXPECT_EQ(os.str(), engine_text(std::mt19937_64(3)));
  EXPECT_TRUE(os.flags() & std::ios_base::hex);
  EXPECT_EQ(os.fill(), '*');
}

TEST(Mt19937_64, ReadsStdText) {
  std::mt19937_64 reference(77);
  for (int i = 0; i < 500; ++i) reference();
  std::istringstream in(engine_text(reference));
  Mt19937_64 ours;
  in >> ours;
  ASSERT_TRUE(in);
  EXPECT_EQ(ours.index, 500u - Mt19937_64::kStateSize);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(ours(), reference());
}

TEST(Mt19937_64, RejectsBadText) {
  std::string text = engine_text(Mt19937_64(5));
  Mt19937_64 untouched(9);
  const Mt19937_64 before = untouched;
  {
    std::istringstream in(text.substr(0, text.size() / 2));  // truncated
    in >> untouched;
    EXPECT_FALSE(in);
    EXPECT_EQ(untouched, before);
  }
  {
    text.replace(text.rfind(' ') + 1, std::string::npos, "313");  // index past the state
    std::istringstream in(text);
    in >> untouched;
    EXPECT_FALSE(in);
    EXPECT_EQ(untouched, before);
  }
}

// ---------------------------------------------------------- fill_normal ---

// The reference: one fresh std::normal_distribution per draw, as
// Rng::normal runs it.
double reference_normal(std::mt19937_64& engine, double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine);
}

// Loads `reference`'s state into a fresh in-tree engine.
Mt19937_64 copy_of(const std::mt19937_64& reference) {
  std::istringstream in(engine_text(reference));
  Mt19937_64 ours;
  in >> ours;
  return ours;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

TEST(FillNormal, EveryBackendMatchesStdLoop) {
  for (const normal_fill::Backend& backend : normal_fill::host_backends()) {
    SCOPED_TRACE(backend.name);
    std::mt19937_64 reference(2024);
    Mt19937_64 ours = copy_of(reference);
    std::vector<double> got, want;
    for (std::size_t n = 0; n <= 700; ++n) {
      // Skip 0-3 words first, so fills start at both parities and attempts
      // straddle the twist in every position.
      for (std::size_t skip = n % 4; skip > 0; --skip) ours(), reference();
      const double mean = (n % 3 == 0) ? 0.0 : 0.5 * static_cast<double>(n % 7) - 1.0;
      const double stddev = 0.25 + 0.125 * static_cast<double>(n % 5);
      got.assign(n, -7.0);
      normal_fill::fill(ours, got.data(), n, mean, stddev, backend);
      want.resize(n);
      for (double& v : want) v = reference_normal(reference, mean, stddev);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(got[i], want[i])) << "n " << n << " draw " << i;
      }
      ASSERT_EQ(engine_text(ours), engine_text(reference)) << "n " << n;
    }
    EXPECT_EQ(ours(), reference());
  }
}

TEST(FillNormal, AttemptAcrossTheTwist) {
  for (const normal_fill::Backend& backend : normal_fill::host_backends()) {
    SCOPED_TRACE(backend.name);
    for (std::size_t start = Mt19937_64::kStateSize - 5; start <= Mt19937_64::kStateSize;
         ++start) {
      std::mt19937_64 reference(11);
      for (std::size_t i = 0; i < start; ++i) reference();
      Mt19937_64 ours = copy_of(reference);
      double got[9];
      normal_fill::fill(ours, got, 9, 3.0, 2.0, backend);
      for (double v : got) ASSERT_TRUE(same_bits(v, reference_normal(reference, 3.0, 2.0)));
      EXPECT_EQ(ours(), reference());
    }
  }
}

// Inverts Mt19937_64::temper, so a test can place chosen outputs in the state.
std::uint64_t untemper(std::uint64_t z) {
  z ^= z >> 43;
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  std::uint64_t y = z;
  for (int i = 0; i < 4; ++i) y = z ^ ((y << 17) & 0x71D67FFFEDA60000ULL);
  z = y;
  for (int i = 0; i < 3; ++i) y = z ^ ((y >> 29) & 0x5555555555555555ULL);
  return y;
}

TEST(FillNormal, MatchesStdOnEdgeOutputs) {
  // Outputs that hit generate_canonical's clamp below 1 (u = 1 - 2^-53 once
  // rounded), r2 == 0 (rejected), r2 == 1 (accepted, log 0), x == y == 1
  // (rejected) and rounding at the top of the double conversion.
  const std::uint64_t kHalf = 1ULL << 63, kTop = ~0ULL;
  const std::uint64_t edge[] = {kHalf, kHalf, kTop, kTop, kHalf, 0, kTop, kHalf,
                                kTop - 1024, kHalf + 1, 0, kHalf, kTop - 2047, 12345,
                                kHalf - 1, kHalf + 2048, 1, kTop - 4096};
  for (const normal_fill::Backend& backend : normal_fill::host_backends()) {
    SCOPED_TRACE(backend.name);
    Mt19937_64 ours(99);
    ours.twist();
    for (std::size_t i = 0; i < std::size(edge); ++i) {
      ours.state[i] = untemper(edge[i]);
      ASSERT_EQ(Mt19937_64::temper(ours.state[i]), edge[i]);
    }
    std::istringstream in(engine_text(ours));
    std::mt19937_64 reference;
    in >> reference;
    double got[12];
    normal_fill::fill(ours, got, 12, -1.5, 0.75, backend);
    for (double v : got) ASSERT_TRUE(same_bits(v, reference_normal(reference, -1.5, 0.75)));
    EXPECT_EQ(ours(), reference());
  }
}

TEST(FillNormal, RngFillMatchesNormalCalls) {
  Rng filled(5), called(5);
  (void)filled.uniform_int(0, 9);
  (void)called.uniform_int(0, 9);
  std::vector<double> got(1000);
  filled.fill_normal(got.data(), got.size(), 0.0, 0.25);
  for (double v : got) ASSERT_TRUE(same_bits(v, called.normal(0.0, 0.25)));
  EXPECT_EQ(filled.engine(), called.engine());
  EXPECT_STREQ(normal_fill::backend(), normal_fill::host_backends().front().name);
}

}  // namespace
}  // namespace specdag
