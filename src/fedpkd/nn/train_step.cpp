#include "fedpkd/nn/train_step.hpp"

#include <stdexcept>

#include "fedpkd/exec/thread_pool.hpp"

namespace fedpkd::nn {

TrainStep::TrainStep(Classifier& model, Optimizer& optimizer)
    : model_(model), optimizer_(optimizer), jobs_(model.grad_jobs()) {
  const std::vector<Parameter*>& params = optimizer.params();
  bool same = params.size() == jobs_.size();
  for (std::size_t i = 0; same && i < jobs_.size(); ++i) {
    same = params[i] == jobs_[i].param;
  }
  if (!same) {
    throw std::invalid_argument(
        "TrainStep: optimizer does not hold the model's parameters");
  }
  offsets_.reserve(jobs_.size());
  std::vector<std::size_t> sizes;
  sizes.reserve(jobs_.size());
  for (const GradJob& job : jobs_) {
    offsets_.push_back(weights_);
    weights_ += job.param->numel();
    sizes.push_back(job.param->numel());
  }
  // A parameter's gradient job and update cost about one pass over it.
  param_order_ = exec::costliest_first(sizes);
  // A row's forward (or backward) costs about one multiply-add per weight.
  row_grain_ = exec::grain_for_cost(weights_);
}

TrainStep::~TrainStep() { model_.release_step_buffers(); }

void TrainStep::set_proximal(const Tensor& reference, float mu) {
  if (reference.rank() != 1 || reference.numel() != weights_) {
    throw std::invalid_argument("TrainStep::set_proximal: reference size " +
                                std::to_string(reference.numel()) +
                                " != model size " + std::to_string(weights_));
  }
  reference_ = &reference;
  mu_ = mu;
}

void TrainStep::forward(const Tensor& x) {
  model_.prepare(x);
  exec::parallel_for(x.rows(), row_grain_,
                     [&](std::size_t r0, std::size_t r1) {
                       model_.forward_rows(x, r0, r1);
                     });
}

void TrainStep::backward_and_update(const StepLoss& loss) {
  const Tensor& logits = model_.logits();
  if (!loss.grad_logits.same_shape(logits) ||
      (loss.grad_features != nullptr &&
       !loss.grad_features->same_shape(model_.last_features()))) {
    throw std::invalid_argument(
        "TrainStep: loss gradient does not match the batch");
  }
  exec::parallel_for(logits.rows(), row_grain_,
                     [&](std::size_t r0, std::size_t r1) {
                       model_.backward_rows(loss.grad_logits,
                                            loss.grad_features, r0, r1);
                     });
  optimizer_.begin_step();
  exec::parallel_for_each(param_order_, [&](std::size_t i, std::size_t) {
    Parameter& p = *jobs_[i].param;
    p.grad.zero();
    jobs_[i].owner->accumulate_grad(p);
    if (reference_ != nullptr) {
      add_proximal_gradient(p, reference_->data() + offsets_[i], mu_);
    }
    optimizer_.update(i);
  });
}

}  // namespace fedpkd::nn
