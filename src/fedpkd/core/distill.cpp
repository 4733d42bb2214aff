#include "fedpkd/core/distill.hpp"

#include <cmath>
#include <stdexcept>

#include "fedpkd/data/loader.hpp"
#include "fedpkd/nn/loss.hpp"
#include "fedpkd/nn/optimizer.hpp"
#include "fedpkd/nn/train_step.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::core {

fl::TrainStats server_ensemble_distill(Classifier& server_model,
                                       const Tensor& inputs,
                                       const Tensor& teacher_probs,
                                       const std::vector<int>& pseudo_labels,
                                       const PrototypeSet& global_prototypes,
                                       const ServerDistillOptions& options,
                                       tensor::Rng& rng) {
  if (inputs.rank() != 2 || teacher_probs.rank() != 2 ||
      inputs.rows() != teacher_probs.rows() ||
      pseudo_labels.size() != inputs.rows()) {
    throw std::invalid_argument("server_ensemble_distill: inconsistent sets");
  }
  if (options.delta < 0.0f || options.delta > 1.0f) {
    throw std::invalid_argument(
        "server_ensemble_distill: delta must be in [0, 1]");
  }
  if (inputs.rows() == 0) {
    throw std::invalid_argument("server_ensemble_distill: empty distill set");
  }
  global_prototypes.validate();
  const std::size_t feature_dim = server_model.feature_dim();
  if (global_prototypes.feature_dim() != feature_dim) {
    throw std::invalid_argument(
        "server_ensemble_distill: prototype feature dim mismatch");
  }

  data::Dataset wrapper(inputs, pseudo_labels, teacher_probs.cols());
  nn::Adam optimizer(server_model.parameters(), {.lr = options.lr});
  nn::TrainStep step(server_model, optimizer);
  data::DataLoader loader(wrapper, options.batch_size, rng.split(0x73727664));

  // Per-sample confidence weights for the extension (mean-1 normalized per
  // batch below; both KD losses have row-separable gradients, so scaling a
  // row's gradient is exactly scaling its loss contribution).
  std::vector<float> confidence;
  if (options.confidence_weighted) {
    const Tensor entropy = tensor::entropy_rows(teacher_probs);
    const float h_max = std::log(static_cast<float>(teacher_probs.cols()));
    confidence.resize(entropy.numel());
    for (std::size_t i = 0; i < entropy.numel(); ++i) {
      confidence[i] = std::max(1e-3f, 1.0f - entropy[i] / h_max);
    }
  }

  fl::TrainStats stats;
  double loss_sum = 0.0;
  // Batch, teacher-slice, and prototype-gradient buffers persist across steps
  // so the hot loop reuses their capacity instead of reallocating.
  data::Batch batch;
  Tensor teacher;
  Tensor grad_features;
  const auto distill_loss = [&](const Tensor& logits, const Tensor& features) {
    // L_kd (Eq. 11): KL(S || M_G) + CE(M_G, pseudo), both on this batch.
    auto [kl, grad_kl] =
        nn::kl_distillation(logits, teacher, options.temperature);
    auto [ce, grad_ce] = nn::softmax_cross_entropy(logits, batch.y);
    nn::StepLoss out{options.delta * (kl + ce), std::move(grad_kl)};
    Tensor& grad_logits = out.grad_logits;
    tensor::add_inplace(grad_logits, grad_ce);
    tensor::scale_inplace(grad_logits, options.delta);

    if (options.confidence_weighted) {
      double mean_w = 0.0;
      for (std::size_t r = 0; r < batch.size(); ++r) {
        mean_w += confidence[batch.indices[r]];
      }
      mean_w /= static_cast<double>(batch.size());
      const std::size_t cols = grad_logits.cols();
      for (std::size_t r = 0; r < batch.size(); ++r) {
        const float w =
            static_cast<float>(confidence[batch.indices[r]] / mean_w);
        float* g = grad_logits.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c) g[c] *= w;
      }
    }

    // L_p (Eq. 12): pull each sample's feature vector toward the global
    // prototype of its pseudo-label.
    if (options.use_prototype_loss && options.delta < 1.0f) {
      grad_features.ensure_shape(features.shape());
      grad_features.zero();  // rows whose prototype class is absent stay 0
      // Each row's squared error is summed in double, then added to the
      // total in row order.
      double mse = 0.0;
      std::size_t counted = 0;
      for (std::size_t r = 0; r < features.rows(); ++r) {
        const auto cls = static_cast<std::size_t>(batch.y[r]);
        if (!global_prototypes.present[cls]) continue;
        counted += feature_dim;
        double acc = 0.0;
        for (std::size_t c = 0; c < feature_dim; ++c) {
          const float diff = features[r * feature_dim + c] -
                             global_prototypes.matrix[cls * feature_dim + c];
          acc += static_cast<double>(diff) * diff;
          grad_features[r * feature_dim + c] = 2.0f * diff;
        }
        mse += acc;
      }
      if (counted > 0) {
        const float inv = 1.0f / static_cast<float>(counted);
        const float scale = (1.0f - options.delta) * inv;
        tensor::scale_inplace(grad_features, scale);
        out.value += (1.0f - options.delta) *
                     static_cast<float>(mse / static_cast<double>(counted));
        out.grad_features = &grad_features;
      }
    }
    return out;
  };
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    loader.reset();
    while (loader.next(batch)) {
      teacher_probs.gather_rows_into(batch.indices, teacher);
      const float loss = step.run(batch.x, distill_loss);
      ++stats.steps;
      stats.final_loss = loss;
      loss_sum += loss;
    }
  }
  stats.mean_loss =
      stats.steps > 0 ? static_cast<float>(loss_sum / stats.steps) : 0.0f;
  return stats;
}

}  // namespace fedpkd::core
