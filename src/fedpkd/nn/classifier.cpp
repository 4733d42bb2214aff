#include "fedpkd/nn/classifier.hpp"

#include <stdexcept>

namespace fedpkd::nn {

Classifier::Classifier(std::string arch_name, std::unique_ptr<Module> body,
                       std::unique_ptr<Linear> head, std::size_t input_dim)
    : arch_(std::move(arch_name)),
      body_(std::move(body)),
      head_(std::move(head)),
      input_dim_(input_dim) {
  if (!body_ || !head_) {
    throw std::invalid_argument("Classifier: null body or head");
  }
  for (const GradJob& job : module_grad_jobs()) {
    parameter_count_ += job.param->numel();
  }
}

void Classifier::check_input(const Tensor& x, const char* who) const {
  if (x.rank() != 2 || x.cols() != input_dim_) {
    throw std::invalid_argument(std::string(who) + ": expected [batch, " +
                                std::to_string(input_dim_) + "], got " +
                                x.shape_string());
  }
}

void Classifier::check_drawn(const char* who) const {
  if (pending_init_) {
    throw std::logic_error(std::string(who) +
                           ": initial weights not drawn yet (draw_init first)");
  }
}

void Classifier::check_grad(const Tensor& g, const Tensor& like,
                            const char* what) {
  if (like.empty()) {
    throw std::logic_error(std::string(what) + ": no cached training pass");
  }
  if (!g.same_shape(like)) {
    throw std::invalid_argument(std::string(what) + ": gradient shape " +
                                g.shape_string() + " vs " +
                                like.shape_string());
  }
}

Tensor Classifier::forward(const Tensor& x, bool train) {
  if (!train) {
    draw_init();
    Tensor out;
    logits_into(x, out);
    return out;
  }
  prepare(x);
  forward_rows(x, 0, x.rows());
  return logits();
}

void Classifier::logits_into(const Tensor& x, Tensor& out) {
  check_input(x, "Classifier::logits_into");
  check_drawn("Classifier::logits_into");
  EvalScratch scratch;
  body_->infer(x, scratch.a());
  head_->infer(scratch.a(), out);
}

void Classifier::features_into(const Tensor& x, Tensor& out) {
  check_input(x, "Classifier::features_into");
  check_drawn("Classifier::features_into");
  body_->infer(x, out);
}

void Classifier::backward(const Tensor& grad_logits,
                          const Tensor* grad_features_extra) {
  if (!forward_through_head_) {
    throw std::logic_error(
        "Classifier::backward: no cached forward pass through the head");
  }
  check_grad(grad_logits, logits(), "Classifier::backward");
  if (grad_features_extra != nullptr) {
    check_grad(*grad_features_extra, last_features(), "Classifier::backward");
  }
  backward_rows(grad_logits, grad_features_extra, 0, grad_logits.rows());
  for (const GradJob& job : grad_jobs()) job.owner->accumulate_grad(*job.param);
}

void Classifier::prepare(const Tensor& x) {
  check_input(x, "Classifier::forward");
  draw_init();
  const std::size_t m = x.rows();
  body_->prepare(m, input_dim_);
  head_->prepare(m, body_->output().cols());
  grad_features_.ensure_shape({m, feature_dim()});
  forward_through_head_ = true;
}

void Classifier::forward_rows(const Tensor& x, std::size_t r0,
                              std::size_t r1) {
  body_->forward_rows(x, r0, r1);
  head_->forward_rows(body_->output(), r0, r1);
}

void Classifier::backward_rows(const Tensor& grad_logits,
                               const Tensor* grad_features_extra,
                               std::size_t r0, std::size_t r1) {
  head_->backward_rows(grad_logits, r0, r1);
  const Tensor* grad_features = &head_->input_grad();
  if (grad_features_extra != nullptr) {
    const std::size_t n = grad_features_.cols();
    for (std::size_t i = r0 * n; i < r1 * n; ++i) {
      grad_features_[i] = (*grad_features)[i] + (*grad_features_extra)[i];
    }
    grad_features = &grad_features_;
  }
  body_->backward_rows(*grad_features, r0, r1);
}

std::vector<GradJob> Classifier::grad_jobs() {
  draw_init();
  return module_grad_jobs();
}

std::vector<GradJob> Classifier::module_grad_jobs() {
  std::vector<GradJob> jobs;
  body_->collect_grad_jobs(jobs);
  head_->collect_grad_jobs(jobs);
  return jobs;
}

void Classifier::release_step_buffers() {
  body_->release_step_buffers();
  head_->release_step_buffers();
  grad_features_ = Tensor();
  forward_through_head_ = false;
}

std::vector<Parameter*> Classifier::parameters() {
  std::vector<Parameter*> out;
  for (const GradJob& job : grad_jobs()) out.push_back(job.param);
  return out;
}

void Classifier::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

Tensor Classifier::flat_weights() {
  return flatten_parameters(parameters());
}

void Classifier::set_flat_weights(const Tensor& flat) {
  std::vector<Parameter*> params;
  for (const GradJob& job : module_grad_jobs()) params.push_back(job.param);
  unflatten_parameters(flat, std::move(params));
  pending_init_.reset();
}

void Classifier::draw_init() {
  if (!pending_init_) return;
  // Linear weights in parameter order are make_resmlp's construction order,
  // so these are the draws make_classifier makes from the same stream.
  for (const GradJob& job : module_grad_jobs()) {
    auto* linear = dynamic_cast<Linear*>(job.owner);
    if (linear != nullptr && job.param == &linear->weight()) {
      linear->draw_init(*pending_init_);
    }
  }
  pending_init_.reset();
}

Classifier Classifier::clone() const {
  auto body_copy = body_->clone();
  auto head_generic = head_->clone();
  // clone() returns Module; the head is always a Linear by construction.
  auto* head_raw = dynamic_cast<Linear*>(head_generic.get());
  if (head_raw == nullptr) {
    throw std::logic_error("Classifier::clone: head clone is not Linear");
  }
  head_generic.release();
  Classifier copy(arch_, std::move(body_copy),
                  std::unique_ptr<Linear>(head_raw), input_dim_);
  copy.pending_init_ = pending_init_;
  return copy;
}

}  // namespace fedpkd::nn
