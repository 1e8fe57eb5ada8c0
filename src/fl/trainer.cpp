#include "fl/trainer.hpp"

#include <stdexcept>

#include "nn/loss.hpp"

namespace specdag::fl {

double train_local(nn::Sequential& model, const data::ClientData& client,
                   const TrainConfig& config, nn::Optimizer& optimizer, Rng& rng) {
  if (client.num_train() == 0) throw std::invalid_argument("train_local: no training data");
  if (config.local_epochs == 0 || config.local_batches == 0 || config.batch_size == 0) {
    throw std::invalid_argument("train_local: zero epochs/batches/batch size");
  }
  double loss_sum = 0.0;
  std::size_t batches_done = 0;
  for (std::size_t epoch = 0; epoch < config.local_epochs; ++epoch) {
    const std::vector<data::Batch> batches =
        data::sample_batches(client.train_x, client.train_y, client.element_shape,
                             config.batch_size, config.local_batches, rng);
    for (const data::Batch& batch : batches) {
      const Tensor logits = model.forward(batch.inputs, /*train=*/true);
      nn::LossResult loss = nn::softmax_cross_entropy(logits, batch.labels);
      model.backward(loss.grad_logits);
      if (config.freeze_prefix_params > 0) {
        auto params = model.params();
        const std::size_t frozen = std::min(config.freeze_prefix_params, params.size());
        for (std::size_t p = 0; p < frozen; ++p) params[p].grad->fill(0.0f);
      }
      optimizer.step(model);
      loss_sum += loss.loss;
      ++batches_done;
    }
  }
  return loss_sum / static_cast<double>(batches_done);
}

double train_local_sgd(nn::Sequential& model, const data::ClientData& client,
                       const TrainConfig& config, Rng& rng) {
  nn::Sgd sgd(config.learning_rate);
  return train_local(model, client, config, sgd, rng);
}

void train_local_batched(nn::BatchExecutor& exec, std::vector<BatchTrainLane>& lanes,
                         const TrainConfig& config) {
  if (lanes.empty()) throw std::invalid_argument("train_local_batched: no lanes");
  if (config.local_epochs == 0 || config.local_batches == 0 || config.batch_size == 0) {
    throw std::invalid_argument("train_local_batched: zero epochs/batches/batch size");
  }
  if (config.learning_rate <= 0.0) {
    throw std::invalid_argument("train_local_batched: non-positive learning rate");
  }
  const std::size_t k = lanes.size();
  exec.begin(k);
  for (std::size_t l = 0; l < k; ++l) {
    if (lanes[l].client == nullptr || lanes[l].start == nullptr || lanes[l].rng == nullptr) {
      throw std::invalid_argument("train_local_batched: incomplete lane");
    }
    if (lanes[l].client->num_train() == 0) {
      throw std::invalid_argument("train_local_batched: no training data");
    }
    exec.load_weights(l, *lanes[l].start);
    lanes[l].train_loss = 0.0;
  }
  // Matches Sgd::step's double -> float narrowing of the learning rate.
  const float lr = static_cast<float>(config.learning_rate);
  std::vector<std::vector<data::Batch>> epoch_batches(k);
  std::vector<const Tensor*> inputs(k);
  for (std::size_t epoch = 0; epoch < config.local_epochs; ++epoch) {
    // Scalar train_local consumes one epoch's rng draws up front via
    // sample_batches, then trains without touching the rng — so sampling
    // every lane's epoch here preserves each lane's exact draw sequence.
    for (std::size_t l = 0; l < k; ++l) {
      epoch_batches[l] = data::sample_batches(lanes[l].client->train_x,
                                              lanes[l].client->train_y,
                                              lanes[l].client->element_shape,
                                              config.batch_size, config.local_batches,
                                              *lanes[l].rng);
    }
    for (std::size_t b = 0; b < config.local_batches; ++b) {
      for (std::size_t l = 0; l < k; ++l) inputs[l] = &epoch_batches[l][b].inputs;
      exec.forward(inputs);
      for (std::size_t l = 0; l < k; ++l) {
        lanes[l].train_loss += exec.loss_and_grad(l, epoch_batches[l][b].labels);
      }
      exec.backward();
      exec.sgd_step(lr, config.freeze_prefix_params);
    }
  }
  const double batches_done =
      static_cast<double>(config.local_epochs * config.local_batches);
  for (std::size_t l = 0; l < k; ++l) {
    lanes[l].train_loss /= batches_done;
    lanes[l].trained = exec.weights(l);
  }
}

}  // namespace specdag::fl
