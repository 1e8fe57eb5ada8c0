// lanes::exp, lanes::sigmoid and lanes::tanh on all 2^32 float inputs: every
// SIMD backend against the scalar reference, and the scalar reference
// against the host libm. The backends must match the reference everywhere.
// The libm match is what the JSONL goldens and the pinned digests rest on:
// they were recorded while the LSTM and softmax still called glibc's expf
// and tanhf, and the references are ports of glibc 2.36's.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "tensor/lanes.hpp"

namespace specdag {
namespace {

using ElementKernel = void (*)(const float*, float*, std::size_t);

std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

const char* libc_version() {
#if defined(__GLIBC__)
  return gnu_get_libc_version();
#else
  return "not glibc";
#endif
}

struct Mismatches {
  std::uint64_t count = 0;
  std::uint32_t first_input = 0;  // the lowest bit pattern that differs
};

// Sweeps every bit pattern on up to 4 threads, 64 Ki inputs at a time, and
// counts where each SIMD backend's kernel (the `kernel` member of
// lanes::Backend) or `libm` differs from `reference` in any bit.
void sweep(const char* name, ElementKernel lanes::Backend::*kernel, float (*reference)(float),
           float (*libm)(float)) {
  std::vector<lanes::Backend> simd = lanes::host_backends();
  simd.pop_back();  // the scalar backend is the reference
  std::vector<Mismatches> backend_mismatches(simd.size());
  Mismatches libm_mismatches;
  std::mutex mu;
  const auto record = [&mu](Mismatches& m, std::uint64_t count, std::uint32_t first) {
    if (count == 0) return;
    const std::lock_guard lock(mu);
    m.first_input = m.count == 0 ? first : std::min(m.first_input, first);
    m.count += count;
  };

  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  std::atomic<std::uint64_t> next{0};
  const auto work = [&] {
    std::vector<float> x(kChunk), want(kChunk), got(kChunk);
    for (std::uint64_t start; (start = next.fetch_add(kChunk)) < (std::uint64_t{1} << 32);) {
      for (std::uint64_t j = 0; j < kChunk; ++j) {
        x[j] = std::bit_cast<float>(static_cast<std::uint32_t>(start + j));
        want[j] = reference(x[j]);
      }
      const auto compare = [&](Mismatches& m) {
        std::uint64_t count = 0;
        std::uint32_t first = 0;
        for (std::uint64_t j = 0; j < kChunk; ++j) {
          if (bits_of(got[j]) == bits_of(want[j])) continue;
          if (count++ == 0) first = static_cast<std::uint32_t>(start + j);
        }
        record(m, count, first);
      };
      for (std::size_t b = 0; b < simd.size(); ++b) {
        (simd[b].*kernel)(x.data(), got.data(), kChunk);
        compare(backend_mismatches[b]);
      }
      for (std::uint64_t j = 0; j < kChunk; ++j) got[j] = libm(x[j]);
      compare(libm_mismatches);
    }
  };
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();

  std::string report;
  for (std::size_t b = 0; b < simd.size(); ++b) {
    report += std::string(" ") + simd[b].name + " " + std::to_string(backend_mismatches[b].count);
    EXPECT_EQ(backend_mismatches[b].count, 0u)
        << name << ": " << simd[b].name << " differs from the scalar reference, first at 0x"
        << std::hex << backend_mismatches[b].first_input;
  }
  EXPECT_EQ(libm_mismatches.count, 0u)
      << name << ": the scalar reference differs from the host libm (glibc " << libc_version()
      << "), first at 0x" << std::hex << libm_mismatches.first_input;
  std::printf("%s over 2^32 inputs, mismatches:%s, libm (glibc %s) %llu\n", name,
              report.c_str(), libc_version(),
              static_cast<unsigned long long>(libm_mismatches.count));
}

TEST(ExhaustiveLanes, Exp) {
  sweep("exp", &lanes::Backend::exp, lanes::exp_ref, [](float x) { return std::exp(x); });
}

TEST(ExhaustiveLanes, Sigmoid) {
  sweep("sigmoid", &lanes::Backend::sigmoid, lanes::sigmoid_ref,
        [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

TEST(ExhaustiveLanes, Tanh) {
  sweep("tanh", &lanes::Backend::tanh, lanes::tanh_ref, [](float x) { return std::tanh(x); });
}

}  // namespace
}  // namespace specdag
