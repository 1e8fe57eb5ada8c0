#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace specdag::data {

void ClientData::validate() const {
  const std::size_t elem = element_numel();
  if (elem == 0) throw std::invalid_argument("ClientData: empty element shape");
  if (train_x.size() != train_y.size() * elem) {
    throw std::invalid_argument("ClientData: train_x/train_y size mismatch");
  }
  if (test_x.size() != test_y.size() * elem) {
    throw std::invalid_argument("ClientData: test_x/test_y size mismatch");
  }
}

void FederatedDataset::validate() const {
  if (num_classes == 0) throw std::invalid_argument("FederatedDataset: zero classes");
  if (clients.empty()) throw std::invalid_argument("FederatedDataset: no clients");
  for (const auto& c : clients) {
    c.validate();
    if (c.element_shape != element_shape) {
      throw std::invalid_argument("FederatedDataset: inconsistent element shapes");
    }
    for (int y : c.train_y) {
      if (y < 0 || static_cast<std::size_t>(y) >= num_classes) {
        throw std::invalid_argument("FederatedDataset: train label out of range");
      }
    }
    for (int y : c.test_y) {
      if (y < 0 || static_cast<std::size_t>(y) >= num_classes) {
        throw std::invalid_argument("FederatedDataset: test label out of range");
      }
    }
  }
}

std::vector<int> FederatedDataset::true_clusters() const {
  std::vector<int> clusters;
  clusters.reserve(clients.size());
  for (const auto& c : clients) clusters.push_back(c.true_cluster);
  return clusters;
}

Batch gather_batch(const std::vector<float>& x, const std::vector<int>& y,
                   const Shape& element_shape, const std::vector<std::size_t>& indices) {
  if (indices.empty()) throw std::invalid_argument("gather_batch: empty index set");
  const std::size_t elem = shape_numel(element_shape);
  Shape batch_shape;
  batch_shape.push_back(indices.size());
  batch_shape.insert(batch_shape.end(), element_shape.begin(), element_shape.end());
  Batch batch{Tensor(batch_shape), {}};
  batch.labels.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t idx = indices[i];
    if (idx >= y.size()) throw std::out_of_range("gather_batch: index out of range");
    std::copy(x.begin() + static_cast<std::ptrdiff_t>(idx * elem),
              x.begin() + static_cast<std::ptrdiff_t>((idx + 1) * elem),
              batch.inputs.raw() + i * elem);
    batch.labels.push_back(y[idx]);
  }
  return batch;
}

std::vector<Batch> sample_batches(const std::vector<float>& x, const std::vector<int>& y,
                                  const Shape& element_shape, std::size_t batch_size,
                                  std::size_t num_batches, Rng& rng) {
  if (y.empty()) throw std::invalid_argument("sample_batches: empty dataset");
  if (batch_size == 0) throw std::invalid_argument("sample_batches: zero batch size");
  std::vector<Batch> batches;
  batches.reserve(num_batches);
  for (std::size_t b = 0; b < num_batches; ++b) {
    std::vector<std::size_t> indices;
    if (batch_size <= y.size()) {
      indices = rng.sample_without_replacement(y.size(), batch_size);
    } else {
      // Tiny client: sample with replacement to keep the batch size fixed.
      indices.resize(batch_size);
      for (auto& idx : indices) idx = rng.index(y.size());
    }
    batches.push_back(gather_batch(x, y, element_shape, indices));
  }
  return batches;
}

Batch full_batch(const std::vector<float>& x, const std::vector<int>& y,
                 const Shape& element_shape) {
  std::vector<std::size_t> indices(y.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return gather_batch(x, y, element_shape, indices);
}

void train_test_split(ClientData& client, double test_fraction, Rng& rng) {
  if (test_fraction < 0.0 || test_fraction >= 1.0) {
    throw std::invalid_argument("train_test_split: fraction outside [0, 1)");
  }
  client.validate();
  const std::size_t n = client.num_train();
  if (n == 0 || test_fraction == 0.0) return;
  std::size_t n_test = static_cast<std::size_t>(static_cast<double>(n) * test_fraction);
  if (n_test == 0) n_test = 1;
  if (n_test >= n) n_test = n - 1;

  const std::size_t elem = client.element_numel();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  std::vector<float> new_train_x, new_test_x;
  std::vector<int> new_train_y, new_test_y;
  new_train_x.reserve((n - n_test) * elem);
  new_test_x.reserve(n_test * elem);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = order[i];
    auto first = client.train_x.begin() + static_cast<std::ptrdiff_t>(idx * elem);
    auto last = first + static_cast<std::ptrdiff_t>(elem);
    if (i < n_test) {
      new_test_x.insert(new_test_x.end(), first, last);
      new_test_y.push_back(client.train_y[idx]);
    } else {
      new_train_x.insert(new_train_x.end(), first, last);
      new_train_y.push_back(client.train_y[idx]);
    }
  }
  client.train_x = std::move(new_train_x);
  client.train_y = std::move(new_train_y);
  // Appends to any pre-existing test data.
  client.test_x.insert(client.test_x.end(), new_test_x.begin(), new_test_x.end());
  client.test_y.insert(client.test_y.end(), new_test_y.begin(), new_test_y.end());
}

}  // namespace specdag::data
