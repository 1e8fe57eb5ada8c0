#include "data/cifar_like.hpp"

#include <algorithm>
#include <stdexcept>

namespace specdag::data {
namespace {

void check_config(const CifarLikeConfig& config) {
  if (config.image_size < 4) throw std::invalid_argument("CifarLike: image too small");
  if (config.num_superclasses == 0 || config.subclasses_per_super == 0) {
    throw std::invalid_argument("CifarLike: zero classes");
  }
  if (config.num_clients == 0) throw std::invalid_argument("CifarLike: zero clients");
  if (config.samples_per_client < 2) {
    throw std::invalid_argument("CifarLike: need >= 2 samples per client");
  }
  if (config.pool_per_subclass == 0) throw std::invalid_argument("CifarLike: empty pools");
  if (config.root_concentration <= 0.0 || config.sub_concentration <= 0.0) {
    throw std::invalid_argument("CifarLike: non-positive concentration");
  }
  const std::size_t total_pool = config.num_fine_classes() * config.pool_per_subclass;
  if (config.num_clients * config.samples_per_client > total_pool) {
    throw std::invalid_argument(
        "CifarLike: demand exceeds pool; raise pool_per_subclass");
  }
}

// A smoothed random RGB image of `size` x `size`.
std::vector<float> random_smooth_image(std::size_t size, Rng& rng) {
  const std::size_t channels = 3;
  std::vector<float> img(channels * size * size);
  for (auto& v : img) v = static_cast<float>(rng.uniform());
  // One smoothing pass per channel (4-neighbour average).
  std::vector<float> tmp(img.size());
  for (std::size_t c = 0; c < channels; ++c) {
    const std::size_t base = c * size * size;
    for (std::size_t y = 0; y < size; ++y) {
      for (std::size_t x = 0; x < size; ++x) {
        float sum = img[base + y * size + x];
        int count = 1;
        if (y > 0) { sum += img[base + (y - 1) * size + x]; ++count; }
        if (y + 1 < size) { sum += img[base + (y + 1) * size + x]; ++count; }
        if (x > 0) { sum += img[base + y * size + x - 1]; ++count; }
        if (x + 1 < size) { sum += img[base + y * size + x + 1]; ++count; }
        tmp[base + y * size + x] = sum / static_cast<float>(count);
      }
    }
  }
  return tmp;
}

}  // namespace

std::size_t superclass_of(const CifarLikeConfig& config, int fine_label) {
  if (fine_label < 0 || static_cast<std::size_t>(fine_label) >= config.num_fine_classes()) {
    throw std::invalid_argument("superclass_of: fine label out of range");
  }
  return static_cast<std::size_t>(fine_label) / config.subclasses_per_super;
}

FederatedDataset make_cifar_like(const CifarLikeConfig& config) {
  check_config(config);
  Rng root(config.seed);
  Rng proto_rng = root.fork(0xC1FA);

  // Prototypes: superclass base images, plus subclass deltas blended in.
  const std::size_t elem = 3 * config.image_size * config.image_size;
  std::vector<std::vector<float>> fine_prototypes(config.num_fine_classes());
  for (std::size_t sup = 0; sup < config.num_superclasses; ++sup) {
    const std::vector<float> base = random_smooth_image(config.image_size, proto_rng);
    for (std::size_t sub = 0; sub < config.subclasses_per_super; ++sub) {
      const std::vector<float> delta = random_smooth_image(config.image_size, proto_rng);
      std::vector<float> proto(elem);
      // 80% superclass identity, 20% subclass detail: keeps intra-super
      // similarity clearly higher than inter-super similarity so superclass
      // structure is visible to the accuracy-biased walk.
      for (std::size_t i = 0; i < elem; ++i) proto[i] = 0.8f * base[i] + 0.2f * delta[i];
      fine_prototypes[sup * config.subclasses_per_super + sub] = std::move(proto);
    }
  }

  // Per-subclass sample pools (drawn without replacement during allocation).
  Rng pool_rng = root.fork(0x9001);
  std::vector<std::vector<std::vector<float>>> pools(config.num_fine_classes());
  std::vector<double> noise(elem);
  for (std::size_t f = 0; f < config.num_fine_classes(); ++f) {
    pools[f].reserve(config.pool_per_subclass);
    for (std::size_t s = 0; s < config.pool_per_subclass; ++s) {
      std::vector<float> img = fine_prototypes[f];
      pool_rng.fill_normal(noise.data(), elem, 0.0, config.noise_stddev);
      for (std::size_t i = 0; i < elem; ++i) {
        img[i] = std::clamp(img[i] + static_cast<float>(noise[i]), 0.0f, 1.0f);
      }
      pools[f].push_back(std::move(img));
    }
  }
  std::vector<std::size_t> pool_remaining(config.num_fine_classes(), config.pool_per_subclass);

  FederatedDataset ds;
  ds.name = "cifar100-like";
  ds.num_classes = config.num_fine_classes();
  ds.num_clusters = config.num_superclasses;
  ds.element_shape = {3, config.image_size, config.image_size};

  for (std::size_t i = 0; i < config.num_clients; ++i) {
    Rng rng = root.fork(0xCF000000ULL + i);
    ClientData client;
    client.client_id = static_cast<int>(i);
    client.element_shape = ds.element_shape;

    // PAM: one multinomial path root -> superclass -> subclass per example.
    std::vector<double> super_probs = rng.dirichlet(config.num_superclasses,
                                                    config.root_concentration);
    std::vector<std::vector<double>> sub_probs(config.num_superclasses);
    for (auto& sp : sub_probs) {
      sp = rng.dirichlet(config.subclasses_per_super, config.sub_concentration);
    }

    std::vector<std::size_t> super_counts(config.num_superclasses, 0);
    for (std::size_t s = 0; s < config.samples_per_client; ++s) {
      // Draw until we hit a subclass with pool samples left. Exhausted
      // subclasses get their probability zeroed (draw without replacement).
      std::size_t fine = 0;
      for (;;) {
        const std::size_t sup = rng.weighted_index(super_probs);
        const std::size_t sub = rng.weighted_index(sub_probs[sup]);
        fine = sup * config.subclasses_per_super + sub;
        if (pool_remaining[fine] > 0) break;
        sub_probs[sup][sub] = 0.0;
        bool super_empty = std::all_of(sub_probs[sup].begin(), sub_probs[sup].end(),
                                       [](double p) { return p == 0.0; });
        if (super_empty) super_probs[sup] = 0.0;
      }
      const std::size_t pick = rng.index(pool_remaining[fine]);
      const auto& img = pools[fine][pick];
      client.train_x.insert(client.train_x.end(), img.begin(), img.end());
      client.train_y.push_back(static_cast<int>(fine));
      // Swap-remove from the pool.
      std::swap(pools[fine][pick], pools[fine][pool_remaining[fine] - 1]);
      --pool_remaining[fine];
      ++super_counts[fine / config.subclasses_per_super];
    }

    // Paper: a client's cluster is the most common superclass in its data,
    // ties broken randomly.
    const std::size_t max_count = *std::max_element(super_counts.begin(), super_counts.end());
    std::vector<std::size_t> argmaxes;
    for (std::size_t sup = 0; sup < config.num_superclasses; ++sup) {
      if (super_counts[sup] == max_count) argmaxes.push_back(sup);
    }
    client.true_cluster = static_cast<int>(argmaxes[rng.index(argmaxes.size())]);

    train_test_split(client, config.test_fraction, rng);
    ds.clients.push_back(std::move(client));
  }
  ds.validate();
  return ds;
}

}  // namespace specdag::data
