// Local training loop shared by every algorithm (DAG clients, FedAvg,
// FedProx, gossip). Matches the paper's Table 1 regime: a fixed number of
// local batches per epoch — independent of the client's dataset size, "in
// order to equalize the number of batches used for training per client".
#pragma once

#include "data/dataset.hpp"
#include "nn/batch_executor.hpp"
#include "nn/optimizer.hpp"

namespace specdag::fl {

struct TrainConfig {
  std::size_t local_epochs = 1;
  std::size_t local_batches = 10;  // batches per epoch
  std::size_t batch_size = 10;
  double learning_rate = 0.05;
  // Partial-layer training (the paper's future-work direction): the first
  // `freeze_prefix_params` parameter tensors (in layer order) are frozen —
  // their gradients are dropped before every optimizer step. 0 trains the
  // full model. E.g. 2 freezes the first Dense layer's weight and bias.
  std::size_t freeze_prefix_params = 0;
  // Max clients whose local training is fused into one BatchExecutor group
  // ("train.batch" in scenario specs). 0 disables fused training — the
  // scalar per-client path is the oracle the fused one is pinned against.
  // Evaluation always runs on the scalar path. Results are bit-identical
  // either way; this only trades memory for throughput.
  std::size_t batch = 16;
};

// Trains `model` in place on the client's train partition. Returns the mean
// training loss across all processed batches.
double train_local(nn::Sequential& model, const data::ClientData& client,
                   const TrainConfig& config, nn::Optimizer& optimizer, Rng& rng);

// Convenience overload constructing a plain SGD optimizer from the config.
double train_local_sgd(nn::Sequential& model, const data::ClientData& client,
                       const TrainConfig& config, Rng& rng);

// One client's slot in a fused training group.
struct BatchTrainLane {
  const data::ClientData* client = nullptr;       // training data source
  const nn::WeightVector* start = nullptr;        // initial weights
  Rng* rng = nullptr;                             // per-client batch-sampling rng
  // Outputs:
  double train_loss = 0.0;
  nn::WeightVector trained;
};

// Batched counterpart of train_local_sgd: trains every lane simultaneously
// through one BatchExecutor pass per layer op. Each lane's rng draws, batch
// order, and arithmetic are exactly what train_local_sgd would perform for
// that client alone, so `trained`/`train_loss` are bit-identical to the
// scalar path at any group size. The executor must be supported() and all
// lanes share `config` (same epochs/batches/batch_size, so every fused step
// sees identical shapes).
void train_local_batched(nn::BatchExecutor& exec, std::vector<BatchTrainLane>& lanes,
                         const TrainConfig& config);

}  // namespace specdag::fl
