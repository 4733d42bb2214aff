#include "fedpkd/fl/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "fedpkd/data/loader.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/nn/optimizer.hpp"
#include "fedpkd/nn/train_step.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::fl {

namespace {

/// Builds the per-batch prototype target matrix and the present-row mask.
/// Rows whose class has no prototype contribute no gradient.
struct PrototypeBatch {
  Tensor targets;           // [b, feature_dim]
  std::vector<bool> valid;  // size b
  bool any = false;
};

/// Fills `out` in place (targets keeps its capacity across batches, so the
/// training loop allocates nothing here after warmup).
void gather_prototype_targets(const TrainOptions& options,
                              std::span<const int> labels,
                              std::size_t feature_dim, PrototypeBatch& out) {
  const Tensor& protos = *options.prototype_matrix;
  if (protos.rank() != 2 || protos.cols() != feature_dim) {
    throw std::invalid_argument(
        "train: prototype matrix shape does not match feature dim");
  }
  out.targets.ensure_shape({labels.size(), feature_dim});
  out.valid.assign(labels.size(), false);
  out.any = false;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto cls = static_cast<std::size_t>(labels[i]);
    if (cls >= protos.rows()) {
      throw std::invalid_argument("train: label outside prototype matrix");
    }
    const bool present = options.prototype_class_present == nullptr ||
                         (*options.prototype_class_present)[cls];
    if (!present) continue;
    out.valid[i] = true;
    out.any = true;
    out.targets.set_row(i, protos.row(cls));
  }
}

/// MSE(features, targets) over valid rows only; fills `grad` with the
/// gradient w.r.t. features (zero on invalid rows) and returns the loss.
float masked_feature_mse(const Tensor& features, const PrototypeBatch& proto,
                         Tensor& grad) {
  grad.ensure_shape(features.shape());
  grad.zero();
  const std::size_t b = features.rows(), d = features.cols();
  double loss = 0.0;
  std::size_t valid_elems = 0;
  for (std::size_t r = 0; r < b; ++r) {
    if (!proto.valid[r]) continue;
    valid_elems += d;
  }
  if (valid_elems == 0) return 0.0f;
  const float inv = 1.0f / static_cast<float>(valid_elems);
  for (std::size_t r = 0; r < b; ++r) {
    if (!proto.valid[r]) continue;
    for (std::size_t c = 0; c < d; ++c) {
      const float diff = features[r * d + c] - proto.targets[r * d + c];
      loss += static_cast<double>(diff) * diff;
      grad[r * d + c] = 2.0f * diff * inv;
    }
  }
  return static_cast<float>(loss) * inv;
}

}  // namespace

TrainStats train_supervised(Classifier& model, const data::Dataset& dataset,
                            const TrainOptions& options, Rng& rng) {
  if (dataset.empty()) {
    throw std::invalid_argument("train_supervised: empty dataset");
  }
  nn::Adam optimizer(model.parameters(), {.lr = options.lr});
  nn::TrainStep step(model, optimizer);
  const Tensor reference =
      options.proximal_mu ? model.flat_weights() : Tensor{};
  if (options.proximal_mu) step.set_proximal(reference, *options.proximal_mu);

  data::DataLoader loader(dataset, options.batch_size, rng.split(0x7261696e));
  TrainStats stats;
  double loss_sum = 0.0;
  // Per-batch buffers hoisted out of the loop; all of them reuse their
  // capacity from the second step on.
  data::Batch batch;
  PrototypeBatch proto;
  Tensor grad_features;
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    loader.reset();
    while (loader.next(batch)) {
      const float loss = step.run(batch.x, [&](const Tensor& logits,
                                               const Tensor& features) {
        auto [ce, grad_logits] = nn::softmax_cross_entropy(logits, batch.y);
        nn::StepLoss out{ce, std::move(grad_logits)};
        if (options.prototype_matrix != nullptr) {
          gather_prototype_targets(options, batch.y, model.feature_dim(),
                                   proto);
          if (proto.any) {
            const float mse_loss =
                masked_feature_mse(features, proto, grad_features);
            out.value += options.prototype_epsilon * mse_loss;
            tensor::scale_inplace(grad_features, options.prototype_epsilon);
            out.grad_features = &grad_features;
          }
        }
        return out;
      });
      ++stats.steps;
      stats.final_loss = loss;
      loss_sum += loss;
    }
  }
  stats.mean_loss = stats.steps > 0
                        ? static_cast<float>(loss_sum / stats.steps)
                        : 0.0f;
  return stats;
}

TrainStats train_distill(Classifier& model, const DistillSet& set, float gamma,
                         const TrainOptions& options, Rng& rng,
                         float temperature) {
  if (set.inputs.rank() != 2 || set.teacher_probs.rank() != 2 ||
      set.inputs.rows() != set.teacher_probs.rows() ||
      set.pseudo_labels.size() != set.inputs.rows()) {
    throw std::invalid_argument("train_distill: inconsistent distill set");
  }
  if (gamma < 0.0f || gamma > 1.0f) {
    throw std::invalid_argument("train_distill: gamma must be in [0, 1]");
  }
  if (set.inputs.rows() == 0) {
    throw std::invalid_argument("train_distill: empty distill set");
  }
  // Wrap the distill set as a Dataset so DataLoader handles shuffling; the
  // teacher rows are re-gathered per batch by index.
  data::Dataset wrapper(set.inputs, set.pseudo_labels,
                        set.teacher_probs.cols());
  nn::Adam optimizer(model.parameters(), {.lr = options.lr});
  nn::TrainStep step(model, optimizer);
  data::DataLoader loader(wrapper, options.batch_size, rng.split(0x64697374));

  TrainStats stats;
  double loss_sum = 0.0;
  data::Batch batch;
  Tensor teacher;
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    loader.reset();
    while (loader.next(batch)) {
      set.teacher_probs.gather_rows_into(batch.indices, teacher);
      const float loss = step.run(batch.x, [&](const Tensor& logits,
                                               const Tensor&) {
        auto [kl, grad_kl] = nn::kl_distillation(logits, teacher, temperature);
        float value = gamma * kl;
        if (gamma < 1.0f) {
          auto [ce, grad_ce] = nn::softmax_cross_entropy(logits, batch.y);
          value += (1.0f - gamma) * ce;
          // Fused: grad = gamma * grad_kl + (1 - gamma) * grad_ce, rounding
          // exactly like the scale_inplace + axpy_inplace pair it replaces.
          tensor::scale_add_inplace(grad_kl, gamma, grad_ce, 1.0f - gamma);
        } else {
          tensor::scale_inplace(grad_kl, gamma);
        }
        return nn::StepLoss{value, std::move(grad_kl)};
      });
      ++stats.steps;
      stats.final_loss = loss;
      loss_sum += loss;
    }
  }
  stats.mean_loss = stats.steps > 0
                        ? static_cast<float>(loss_sum / stats.steps)
                        : 0.0f;
  return stats;
}

namespace {

/// Rows per lane tile, small: a lane's EvalScratch keeps them between calls.
constexpr std::size_t kLaneTileRows = 32;

/// `into` (logits_into or features_into) over every row of `inputs`, with
/// one fork per call: each lane runs the whole network's row kernels over
/// its share of the rows, tile by tile, through its own thread-local
/// EvalScratch. Rows are independent, so the result is bitwise independent
/// of the split and the tiles; a warm call allocates only `out`.
Tensor batched_apply(Classifier& model, const Tensor& inputs,
                     std::size_t batch_size, std::size_t out_cols,
                     void (Classifier::*into)(const Tensor&, Tensor&)) {
  if (inputs.rank() != 2 || batch_size == 0) {
    throw std::invalid_argument(
        "batched_apply: inputs must be rank-2 and batch_size > 0");
  }
  model.draw_init();  // the lanes below only read the model
  const std::size_t n = inputs.rows(), d = inputs.cols();
  Tensor out({n, out_cols});
  const std::size_t grain = exec::grain_for_cost(model.parameter_count());
  exec::parallel_for(n, grain, [&](std::size_t r0, std::size_t r1) {
    nn::EvalScratch scratch;
    Tensor& x = scratch.a();
    Tensor& y = scratch.b();
    const std::size_t tile = std::min(batch_size, kLaneTileRows);
    for (std::size_t start = r0; start < r1; start += tile) {
      const std::size_t take = std::min(tile, r1 - start);
      x.ensure_shape({take, d});
      std::copy_n(inputs.data() + start * d, take * d, x.data());
      (model.*into)(x, y);
      std::copy_n(y.data(), take * out_cols, out.data() + start * out_cols);
    }
  });
  return out;
}

}  // namespace

Tensor compute_logits(Classifier& model, const Tensor& inputs,
                      std::size_t batch_size) {
  return batched_apply(model, inputs, batch_size, model.num_classes(),
                       &Classifier::logits_into);
}

Tensor compute_features(Classifier& model, const Tensor& inputs,
                        std::size_t batch_size) {
  return batched_apply(model, inputs, batch_size, model.feature_dim(),
                       &Classifier::features_into);
}

float evaluate_accuracy(Classifier& model, const data::Dataset& dataset,
                        std::size_t batch_size) {
  if (dataset.empty()) {
    throw std::invalid_argument("evaluate_accuracy: empty dataset");
  }
  Tensor logits = compute_logits(model, dataset.features, batch_size);
  return nn::accuracy(logits, dataset.labels);
}

}  // namespace fedpkd::fl
