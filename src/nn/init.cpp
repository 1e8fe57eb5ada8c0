#include "nn/init.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace specdag::nn {

void glorot_uniform(Tensor& t, std::size_t fan_in, std::size_t fan_out, Rng& rng) {
  if (fan_in + fan_out == 0) throw std::invalid_argument("glorot_uniform: zero fans");
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-limit, limit));
}

void normal_init(Tensor& t, double stddev, Rng& rng) {
  std::vector<double> draws(t.numel());
  rng.fill_normal(draws.data(), draws.size(), 0.0, stddev);
  std::copy(draws.begin(), draws.end(), t.data().begin());
}

void zero_init(Tensor& t) { t.fill(0.0f); }

}  // namespace specdag::nn
