#include "fedpkd/fl/client.hpp"

#include "fedpkd/exec/thread_pool.hpp"

namespace fedpkd::fl {

TrainStats Client::train_local(TrainOptions options) {
  options.batch_size = config.batch_size;
  options.lr = config.lr;
  return train_supervised(model, train_data, options, rng);
}

TrainStats Client::digest(const DistillSet& set, float gamma,
                          TrainOptions options, float temperature) {
  options.batch_size = config.batch_size;
  options.lr = config.lr;
  return train_distill(model, set, gamma, options, rng, temperature);
}

tensor::Tensor Client::logits_on(const tensor::Tensor& inputs) {
  return compute_logits(model, inputs);
}

std::vector<std::size_t> claim_order(const std::vector<Client*>& clients,
                                     ClientWork work) {
  std::vector<std::size_t> costs(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const Client& c = *clients[i];
    const std::size_t rows = work == ClientWork::kTrain ? c.train_data.size()
                             : work == ClientWork::kEvaluate
                                 ? c.test_data.size()
                                 : 1;
    costs[i] = c.model.parameter_count() * rows;
  }
  return exec::costliest_first(costs);
}

}  // namespace fedpkd::fl
