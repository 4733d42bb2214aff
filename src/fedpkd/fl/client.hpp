#pragma once

#include <string>
#include <vector>

#include "fedpkd/comm/meter.hpp"
#include "fedpkd/data/dataset.hpp"
#include "fedpkd/fl/trainer.hpp"
#include "fedpkd/nn/classifier.hpp"

namespace fedpkd::fl {

/// Per-client hyperparameters. Defaults follow the paper's Section V-A
/// (Adam, lr 1e-3, batch 32); epoch counts are set per algorithm by the
/// experiment drivers.
struct ClientConfig {
  std::string arch = "resmlp20";
  std::size_t local_epochs = 2;   // e_{c,tr}: epochs on private data
  std::size_t public_epochs = 1;  // e_{c,p}: epochs on public knowledge
  std::size_t batch_size = 32;
  float lr = 1e-3f;
};

/// One federated client: its private train/test split, its (possibly unique)
/// model, and a private RNG stream for shuffling and initialization.
///
/// Clients never see each other's data; every inter-node byte flows through
/// comm::Channel so the meter stays truthful.
struct Client {
  comm::NodeId id = 0;
  ClientConfig config;
  nn::Classifier model;
  data::Dataset train_data;
  data::Dataset test_data;  // same label distribution as train_data
  tensor::Rng rng;

  Client(comm::NodeId node_id, ClientConfig cfg, nn::Classifier m,
         data::Dataset train, data::Dataset test, tensor::Rng r)
      : id(node_id),
        config(std::move(cfg)),
        model(std::move(m)),
        train_data(std::move(train)),
        test_data(std::move(test)),
        rng(r) {}

  /// Local supervised training on the private split (algorithm drivers set
  /// `options.epochs` and any regularizers; batch size, learning rate, and
  /// the thread cap are filled in from `config`). Touches only this client's
  /// model and RNG stream, so distinct clients may run concurrently — the
  /// round engines rely on that.
  TrainStats train_local(TrainOptions options);

  /// Distillation on broadcast knowledge ("digest"), same per-client
  /// isolation guarantee as train_local.
  TrainStats digest(const DistillSet& set, float gamma, TrainOptions options,
                    float temperature = 1.0f);

  /// Logits over `inputs` (typically the public set) from this client's
  /// current model. Read-only on shared inputs; safe to run concurrently
  /// across clients.
  tensor::Tensor logits_on(const tensor::Tensor& inputs);
};

/// The rows a client-level stage runs its model over, per client: the
/// cost key of that stage's fan-out.
enum class ClientWork {
  kTrain,     // parameter_count × train rows: local_update, make_upload
  kEvaluate,  // parameter_count × test rows: the per-round evaluation
  kDigest,    // parameter_count: apply_download, same rows for everyone
};

/// Claim order for a client-level exec::parallel_for_each over `clients`:
/// slots by descending cost of `work`, ties by lower slot.
std::vector<std::size_t> claim_order(const std::vector<Client*>& clients,
                                     ClientWork work);

}  // namespace fedpkd::fl
