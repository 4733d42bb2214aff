#pragma once

#include <functional>
#include <optional>

#include "fedpkd/data/dataset.hpp"
#include "fedpkd/nn/classifier.hpp"
#include "fedpkd/nn/loss.hpp"

namespace fedpkd::fl {

using nn::Classifier;
using tensor::Rng;
using tensor::Tensor;

/// Summary of one training call.
struct TrainStats {
  std::size_t steps = 0;
  float final_loss = 0.0f;
  float mean_loss = 0.0f;
};

/// Options shared by the training entry points below. `proximal_mu`, when
/// set, adds the FedProx term mu/2 ||w - w_ref||^2 (w_ref = weights at call
/// time). `prototype_*` couple the prototype MSE regularizer of Eq. (16)
/// into supervised training: for each sample the feature vector is pulled
/// toward the prototype of its label with weight `prototype_epsilon`.
struct TrainOptions {
  std::size_t epochs = 1;
  std::size_t batch_size = 32;
  float lr = 1e-3f;
  std::optional<float> proximal_mu;
  /// [num_classes, feature_dim] prototype matrix; rows for absent classes may
  /// be arbitrary if `prototype_class_present` marks them false.
  const Tensor* prototype_matrix = nullptr;
  const std::vector<bool>* prototype_class_present = nullptr;
  float prototype_epsilon = 0.5f;
};

/// Supervised cross-entropy training on a labeled dataset (Eq. 4, and with
/// prototypes Eq. 16). Uses Adam as in the paper.
TrainStats train_supervised(Classifier& model, const data::Dataset& dataset,
                            const TrainOptions& options, Rng& rng);

/// Knowledge-distillation training on (inputs, teacher distributions):
/// loss = gamma * KL(teacher || student) + (1 - gamma) * CE(student,
/// pseudo_label) where pseudo_label = argmax teacher (Eq. 15 on clients,
/// and the KD part of Eq. 11 on the server). `temperature` applies to the
/// student softmax inside the KL.
struct DistillSet {
  Tensor inputs;         // [n, d]
  Tensor teacher_probs;  // [n, classes], rows sum to 1
  std::vector<int> pseudo_labels;
};

TrainStats train_distill(Classifier& model, const DistillSet& set, float gamma,
                         const TrainOptions& options, Rng& rng,
                         float temperature = 1.0f);

/// Batched inference: logits for every row of `inputs` (eval mode), split
/// across the lanes, each in tiles of at most min(batch_size, 32) rows.
Tensor compute_logits(Classifier& model, const Tensor& inputs,
                      std::size_t batch_size = 256);

/// Batched inference of penultimate features R_w(x).
Tensor compute_features(Classifier& model, const Tensor& inputs,
                        std::size_t batch_size = 256);

/// Top-1 accuracy of the model on a labeled dataset.
float evaluate_accuracy(Classifier& model, const data::Dataset& dataset,
                        std::size_t batch_size = 256);

}  // namespace fedpkd::fl
