#include "data/synthetic_digits.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace specdag::data {

const std::vector<std::vector<int>> kFmnistClusterClasses = {
    {0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}};

namespace {

// Box blur with a 3x3 window, repeated to smooth random noise into blob-like
// prototypes that survive small shifts (so translation jitter keeps samples
// recognizable, like handwriting).
void box_blur(std::vector<float>& img, std::size_t size, int passes) {
  std::vector<float> tmp(img.size());
  for (int p = 0; p < passes; ++p) {
    for (std::size_t y = 0; y < size; ++y) {
      for (std::size_t x = 0; x < size; ++x) {
        float sum = 0.0f;
        int count = 0;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(y) + dy;
            const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(x) + dx;
            if (ny < 0 || nx < 0 || ny >= static_cast<std::ptrdiff_t>(size) ||
                nx >= static_cast<std::ptrdiff_t>(size)) {
              continue;
            }
            sum += img[static_cast<std::size_t>(ny) * size + static_cast<std::size_t>(nx)];
            ++count;
          }
        }
        tmp[y * size + x] = sum / static_cast<float>(count);
      }
    }
    img.swap(tmp);
  }
}

void normalize_unit(std::vector<float>& img) {
  const auto [mn, mx] = std::minmax_element(img.begin(), img.end());
  const float range = *mx - *mn;
  if (range <= 0.0f) return;
  for (auto& v : img) v = (v - *mn) / range;
}

// Renders one sample into out[0, size * size): the prototype shifted by
// (dy, dx) plus pixel noise, clamped to [0, 1]. noise[i] is pixel i's draw.
void render_sample(const std::vector<float>& prototype, std::size_t size, int dy, int dx,
                   const double* noise, float* out) {
  for (std::size_t y = 0; y < size; ++y) {
    for (std::size_t x = 0; x < size; ++x) {
      const std::ptrdiff_t sy = static_cast<std::ptrdiff_t>(y) - dy;
      const std::ptrdiff_t sx = static_cast<std::ptrdiff_t>(x) - dx;
      float v = 0.0f;
      if (sy >= 0 && sx >= 0 && sy < static_cast<std::ptrdiff_t>(size) &&
          sx < static_cast<std::ptrdiff_t>(size)) {
        v = prototype[static_cast<std::size_t>(sy) * size + static_cast<std::size_t>(sx)];
      }
      out[y * size + x] = std::clamp(v + static_cast<float>(noise[y * size + x]), 0.0f, 1.0f);
    }
  }
}

int cluster_of_class(int cls) {
  for (std::size_t c = 0; c < kFmnistClusterClasses.size(); ++c) {
    const auto& group = kFmnistClusterClasses[c];
    if (std::find(group.begin(), group.end(), cls) != group.end()) return static_cast<int>(c);
  }
  throw std::invalid_argument("cluster_of_class: class outside 0-9");
}

// Draws a shift and one normal per pixel (in pixel order, after the shift)
// and renders the sample straight onto the end of client.train_x. `noise`
// is scratch that every sample of a dataset reuses.
void append_sample(ClientData& client, const std::vector<std::vector<float>>& prototypes,
                   int cls, const SyntheticDigitsConfig& config, Rng& rng,
                   std::vector<double>& noise) {
  const int shift_range = static_cast<int>(config.max_shift);
  const int dy = static_cast<int>(rng.uniform_int(-shift_range, shift_range));
  const int dx = static_cast<int>(rng.uniform_int(-shift_range, shift_range));
  const std::size_t pixels = config.image_size * config.image_size;
  noise.resize(pixels);
  rng.fill_normal(noise.data(), pixels, 0.0, config.noise_stddev);
  const std::size_t offset = client.train_x.size();
  client.train_x.resize(offset + pixels);
  render_sample(prototypes[static_cast<std::size_t>(cls)], config.image_size, dy, dx,
                noise.data(), client.train_x.data() + offset);
  client.train_y.push_back(cls);
}

// A client's sample buffers, sized for all its samples up front.
ClientData reserved_client(const SyntheticDigitsConfig& config) {
  ClientData client;
  client.train_x.reserve(config.samples_per_client * config.image_size * config.image_size);
  client.train_y.reserve(config.samples_per_client);
  return client;
}

void check_config(const SyntheticDigitsConfig& config) {
  if (config.image_size < 4) throw std::invalid_argument("SyntheticDigits: image too small");
  if (config.num_classes == 0) throw std::invalid_argument("SyntheticDigits: zero classes");
  if (config.num_clients == 0) throw std::invalid_argument("SyntheticDigits: zero clients");
  if (config.samples_per_client < 2) {
    throw std::invalid_argument("SyntheticDigits: need at least 2 samples per client");
  }
  if (config.relax_min < 0.0 || config.relax_max > 0.9 || config.relax_min > config.relax_max) {
    throw std::invalid_argument("SyntheticDigits: bad relaxation range");
  }
}

}  // namespace

std::vector<std::vector<float>> make_digit_prototypes(const SyntheticDigitsConfig& config) {
  check_config(config);
  Rng rng = Rng(config.seed).fork(0xD161);
  std::vector<std::vector<float>> prototypes;
  prototypes.reserve(config.num_classes);
  for (std::size_t cls = 0; cls < config.num_classes; ++cls) {
    std::vector<float> img(config.image_size * config.image_size);
    for (auto& v : img) v = static_cast<float>(rng.uniform());
    box_blur(img, config.image_size, 2);
    normalize_unit(img);
    prototypes.push_back(std::move(img));
  }
  return prototypes;
}

FederatedDataset make_fmnist_clustered(const SyntheticDigitsConfig& config) {
  check_config(config);
  if (config.num_classes != 10) {
    throw std::invalid_argument("make_fmnist_clustered: requires 10 classes");
  }
  const auto prototypes = make_digit_prototypes(config);
  FederatedDataset ds;
  ds.name = config.relax_max > 0.0 ? "fmnist-clustered-relaxed" : "fmnist-clustered";
  ds.num_classes = config.num_classes;
  ds.num_clusters = kFmnistClusterClasses.size();
  ds.element_shape = {1, config.image_size, config.image_size};

  Rng root(config.seed);
  std::vector<double> noise;
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    Rng rng = root.fork(0xC11E0000ULL + i);
    ClientData client = reserved_client(config);
    client.client_id = static_cast<int>(i);
    client.true_cluster = static_cast<int>(i % ds.num_clusters);
    client.element_shape = ds.element_shape;
    const auto& own_classes = kFmnistClusterClasses[static_cast<std::size_t>(client.true_cluster)];

    const double relax_fraction = config.relax_max > 0.0
                                      ? rng.uniform(config.relax_min, config.relax_max)
                                      : 0.0;
    for (std::size_t s = 0; s < config.samples_per_client; ++s) {
      int cls;
      if (relax_fraction > 0.0 && rng.bernoulli(relax_fraction)) {
        // Foreign sample: uniform over classes outside the own cluster.
        do {
          cls = static_cast<int>(rng.index(config.num_classes));
        } while (cluster_of_class(cls) == client.true_cluster);
      } else {
        cls = own_classes[rng.index(own_classes.size())];
      }
      append_sample(client, prototypes, cls, config, rng, noise);
    }
    train_test_split(client, config.test_fraction, rng);
    ds.clients.push_back(std::move(client));
  }
  ds.validate();
  return ds;
}

FederatedDataset make_fmnist_by_author(const SyntheticDigitsConfig& config,
                                       double class_concentration) {
  check_config(config);
  if (class_concentration <= 0.0) {
    throw std::invalid_argument("make_fmnist_by_author: non-positive concentration");
  }
  const auto prototypes = make_digit_prototypes(config);
  FederatedDataset ds;
  ds.name = "fmnist-by-author";
  ds.num_classes = config.num_classes;
  ds.num_clusters = 1;  // no synthetic cluster structure
  ds.element_shape = {1, config.image_size, config.image_size};

  Rng root(config.seed);
  std::vector<double> noise;
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    Rng rng = root.fork(0xA0700000ULL + i);
    ClientData client = reserved_client(config);
    client.client_id = static_cast<int>(i);
    client.true_cluster = 0;
    client.element_shape = ds.element_shape;
    const std::vector<double> class_probs = rng.dirichlet(config.num_classes,
                                                          class_concentration);
    for (std::size_t s = 0; s < config.samples_per_client; ++s) {
      const int cls = static_cast<int>(rng.weighted_index(class_probs));
      append_sample(client, prototypes, cls, config, rng, noise);
    }
    train_test_split(client, config.test_fraction, rng);
    ds.clients.push_back(std::move(client));
  }
  ds.validate();
  return ds;
}

}  // namespace specdag::data
