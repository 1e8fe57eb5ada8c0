// Pins every byte of the preset datasets the scenarios generate. The data
// generators draw millions of normals, uniforms and categorical samples, and
// any change to the RNG engine, the normal sampler or the order of draws
// changes some tensor. Each digest folds every client's train/test features
// and labels, and was recorded before the generators' bulk normal fill
// replaced the per-draw loops, so the fill is held to exact equality with
// them, not to a tolerance.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/experiment.hpp"

namespace specdag::sim {
namespace {

// FNV-1a over the bytes, preceded by the element count so that moving a
// sample from train to test changes the digest.
template <typename T>
void fold(std::uint64_t& h, const std::vector<T>& values) {
  const std::uint64_t count = values.size();
  auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001B3ULL;
    }
  };
  mix(&count, sizeof(count));
  mix(values.data(), values.size() * sizeof(T));
}

std::uint64_t digest(const data::FederatedDataset& ds) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const data::ClientData& c : ds.clients) {
    fold(h, std::vector<int>{c.client_id, c.true_cluster});
    fold(h, c.train_x);
    fold(h, c.train_y);
    fold(h, c.test_x);
    fold(h, c.test_y);
  }
  return h;
}

TEST(DatasetDigest, FmnistByAuthorScale) {
  const ExperimentPreset p =
      fmnist_by_author_preset({.seed = 42, .num_clients = 200, .samples_per_client = 30});
  ASSERT_EQ(p.dataset.clients.size(), 200u);
  EXPECT_EQ(digest(p.dataset), 0xB1DB4D282A2943C6ULL);
}

TEST(DatasetDigest, FmnistClusteredRelaxed) {
  EXPECT_EQ(digest(fmnist_relaxed_preset({.seed = 42}).dataset), 0xA84A90133280E145ULL);
}

TEST(DatasetDigest, CifarLike) {
  EXPECT_EQ(digest(cifar_preset({.seed = 42}).dataset), 0xAE60954D3199CE2AULL);
}

TEST(DatasetDigest, FedproxSynthetic) {
  EXPECT_EQ(digest(fedprox_synthetic_preset({.seed = 42}).dataset), 0xF82BA30476D72DCFULL);
}

TEST(DatasetDigest, Poets) {
  EXPECT_EQ(digest(poets_preset({.seed = 42}).dataset), 0x6375B83275E4D221ULL);
}

}  // namespace
}  // namespace specdag::sim
