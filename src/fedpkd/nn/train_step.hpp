#pragma once

#include <vector>

#include "fedpkd/nn/classifier.hpp"
#include "fedpkd/nn/optimizer.hpp"

namespace fedpkd::nn {

/// What a step's loss hands back: the loss value, dLoss/dLogits for the whole
/// batch, and optionally an extra gradient at the feature layer (the
/// prototype terms of Eq. 12 and Eq. 16), which must outlive the step.
struct StepLoss {
  float value = 0.0f;
  Tensor grad_logits;
  const Tensor* grad_features = nullptr;
};

/// The one training step every loop runs (supervised, distillation, server
/// ensemble distillation), split across lanes once per phase:
///
///   1. prepare (serial), then exec::parallel_for over the batch rows:
///      forward;
///   2. the caller's loss on the full-batch logits and features (serial);
///   3. parallel_for over the rows: backward;
///   4. parallel_for_each over the parameters, largest first: zero the
///      gradient, run its gradient job, add the FedProx term, optimizer
///      update.
///
/// The split follows parallel_for — pool size, the caller's nesting budget,
/// any ScopedThreadLimit — so a client training inside a client-parallel
/// round (budget 1) runs every phase inline. Every output is
/// bitwise identical for every split (DESIGN.md §8). The model's step
/// buffers live as long as the TrainStep: its destructor releases them.
class TrainStep {
 public:
  /// `optimizer` must hold exactly model.parameters(), in that order.
  TrainStep(Classifier& model, Optimizer& optimizer);
  ~TrainStep();
  TrainStep(const TrainStep&) = delete;
  TrainStep& operator=(const TrainStep&) = delete;

  /// Adds the FedProx gradient mu * (w - reference) before every update.
  /// `reference` is a flat weight vector (flatten_parameters layout) that
  /// must outlive the step.
  void set_proximal(const Tensor& reference, float mu);

  /// One step on the batch `x`. `loss(logits, features)` sees the full
  /// batch and returns a StepLoss; run() returns its value.
  template <typename Loss>
  float run(const Tensor& x, Loss&& loss) {
    forward(x);
    const StepLoss result = loss(model_.logits(), model_.last_features());
    backward_and_update(result);
    return result.value;
  }

 private:
  void forward(const Tensor& x);
  void backward_and_update(const StepLoss& loss);

  Classifier& model_;
  Optimizer& optimizer_;
  std::vector<GradJob> jobs_;         // parameters() order
  std::vector<std::size_t> offsets_;  // flat weight offset of each parameter
  std::vector<std::size_t> param_order_;  // parameters by descending numel
  std::size_t weights_ = 0;           // total trainable scalars
  const Tensor* reference_ = nullptr;
  float mu_ = 0.0f;
  std::size_t row_grain_ = 1;
};

}  // namespace fedpkd::nn
