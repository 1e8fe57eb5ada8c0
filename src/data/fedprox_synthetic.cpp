#include "data/fedprox_synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace specdag::data {
namespace {

void check_config(const FedProxSyntheticConfig& config) {
  if (config.alpha < 0.0 || config.beta < 0.0) {
    throw std::invalid_argument("FedProxSynthetic: negative alpha/beta");
  }
  if (config.dimension == 0 || config.num_classes < 2) {
    throw std::invalid_argument("FedProxSynthetic: bad dimensions");
  }
  if (config.num_clients == 0) throw std::invalid_argument("FedProxSynthetic: zero clients");
  if (config.min_samples < 2 || config.max_samples < config.min_samples) {
    throw std::invalid_argument("FedProxSynthetic: bad sample bounds");
  }
}

}  // namespace

FederatedDataset make_fedprox_synthetic(const FedProxSyntheticConfig& config) {
  check_config(config);
  FederatedDataset ds;
  ds.name = "fedprox-synthetic";
  ds.num_classes = config.num_classes;
  ds.num_clusters = 1;  // heterogeneity is continuous, not clustered
  ds.element_shape = {config.dimension};

  // Sigma = diag(j^-1.2), shared across clients.
  std::vector<double> sigma(config.dimension);
  for (std::size_t j = 0; j < config.dimension; ++j) {
    sigma[j] = std::pow(static_cast<double>(j + 1), -1.2);
  }

  Rng root(config.seed);
  for (std::size_t k = 0; k < config.num_clients; ++k) {
    Rng rng = root.fork(0xF7000000ULL + k);
    ClientData client;
    client.client_id = static_cast<int>(k);
    client.true_cluster = 0;
    client.element_shape = ds.element_shape;

    const double u_k = rng.normal(0.0, std::sqrt(std::max(config.alpha, 1e-12)));
    const double b_shift = rng.normal(0.0, std::sqrt(std::max(config.beta, 1e-12)));

    std::vector<double> v(config.dimension);
    rng.fill_normal(v.data(), v.size(), b_shift, 1.0);

    // Client-local ground-truth model.
    std::vector<double> w(config.dimension * config.num_classes);
    std::vector<double> b(config.num_classes);
    rng.fill_normal(w.data(), w.size(), u_k, 1.0);
    rng.fill_normal(b.data(), b.size(), u_k, 1.0);

    // Lognormal sample count, clamped to the configured range.
    const double raw = std::exp(rng.normal(std::log(static_cast<double>(config.min_samples) * 2),
                                           config.lognormal_sigma));
    const std::size_t n = std::clamp(static_cast<std::size_t>(raw), config.min_samples,
                                     config.max_samples);

    for (std::size_t s = 0; s < n; ++s) {
      std::vector<double> x(config.dimension);
      for (std::size_t j = 0; j < config.dimension; ++j) {
        x[j] = rng.normal(v[j], std::sqrt(sigma[j]));
      }
      // y = argmax over classes of w_c . x + b_c.
      int best_class = 0;
      double best_score = -1e300;
      for (std::size_t c = 0; c < config.num_classes; ++c) {
        double score = b[c];
        for (std::size_t j = 0; j < config.dimension; ++j) {
          score += w[j * config.num_classes + c] * x[j];
        }
        if (score > best_score) {
          best_score = score;
          best_class = static_cast<int>(c);
        }
      }
      for (double xj : x) client.train_x.push_back(static_cast<float>(xj));
      client.train_y.push_back(best_class);
    }
    train_test_split(client, config.test_fraction, rng);
    ds.clients.push_back(std::move(client));
  }
  ds.validate();
  return ds;
}

}  // namespace specdag::data
