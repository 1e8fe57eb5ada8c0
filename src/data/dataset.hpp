// Dataset containers shared by all experiments.
//
// A FederatedDataset is a set of per-client shards. Each client holds a
// train and a test partition (the paper uses a 90:10 split everywhere; both
// partitions are required because the accuracy-biased random walk evaluates
// foreign models on local *test* data). Features are stored flat; the
// element_shape describes one example (e.g. {1, 16, 16} for images, {seq}
// for token sequences), and batches are materialized on demand.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace specdag::data {

struct ClientData {
  int client_id = -1;
  // Ground-truth cluster label used only by evaluation metrics
  // (misclassification fraction); the learning algorithms never see it.
  int true_cluster = -1;
  // True if this client's labels were poisoned (evaluation bookkeeping).
  bool poisoned = false;

  Shape element_shape;

  std::vector<float> train_x;  // num_train() * element_numel() values
  std::vector<int> train_y;
  std::vector<float> test_x;
  std::vector<int> test_y;

  std::size_t element_numel() const { return shape_numel(element_shape); }
  std::size_t num_train() const { return train_y.size(); }
  std::size_t num_test() const { return test_y.size(); }

  // Throws if internal sizes are inconsistent.
  void validate() const;
};

struct FederatedDataset {
  std::string name;
  std::size_t num_classes = 0;
  std::size_t num_clusters = 0;
  Shape element_shape;
  std::vector<ClientData> clients;

  void validate() const;
  // Each client's ground-truth cluster (ClientData::true_cluster), in
  // client order.
  std::vector<int> true_clusters() const;
};

// A materialized minibatch: inputs [batch, element_shape...] + labels.
struct Batch {
  Tensor inputs;
  std::vector<int> labels;
};

// Builds a batch from explicit example indices into (x, y).
Batch gather_batch(const std::vector<float>& x, const std::vector<int>& y,
                   const Shape& element_shape, const std::vector<std::size_t>& indices);

// Samples `num_batches` batches of `batch_size` examples with replacement at
// the batch level (examples within a batch are distinct when possible). The
// paper fixes the number of local batches per round (Table 1), independent
// of the client's dataset size — this helper implements exactly that.
std::vector<Batch> sample_batches(const std::vector<float>& x, const std::vector<int>& y,
                                  const Shape& element_shape, std::size_t batch_size,
                                  std::size_t num_batches, Rng& rng);

// The whole test partition as a single batch (used by evaluation).
Batch full_batch(const std::vector<float>& x, const std::vector<int>& y,
                 const Shape& element_shape);

// Moves `fraction` of the examples (rounded down, at least 1 when the source
// is non-empty and fraction > 0) from train into test. Used when generators
// produce only a train stream. Split is deterministic given `rng`.
void train_test_split(ClientData& client, double test_fraction, Rng& rng);

}  // namespace specdag::data
