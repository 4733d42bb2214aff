#include "fedpkd/nn/residual.hpp"

#include <stdexcept>

namespace fedpkd::nn {

Residual::Residual(std::unique_ptr<Module> inner) : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("Residual: null inner module");
}

void Residual::forward_eval_into(const Tensor& x, Tensor& out) {
  EvalScratch scratch;
  Tensor& fx = scratch.a();
  inner_->forward_eval_into(x, fx);
  if (!fx.same_shape(x)) {
    throw std::invalid_argument(
        "Residual::forward: inner module changed shape " + x.shape_string() +
        " -> " + fx.shape_string());
  }
  out.ensure_shape(x.shape());
  // Same operand order as the training pass: f(x) + x.
  for (std::size_t i = 0; i < x.numel(); ++i) out[i] = fx[i] + x[i];
}

void Residual::prepare(std::size_t m, std::size_t in_cols) {
  inner_->prepare(m, in_cols);
  const Tensor& fx = inner_->output();
  if (fx.rows() != m || fx.cols() != in_cols) {
    throw std::invalid_argument(
        "Residual::forward: inner module changed shape [" +
        std::to_string(m) + ", " + std::to_string(in_cols) + "] -> " +
        fx.shape_string());
  }
  Module::prepare(m, in_cols);
}

void Residual::forward_rows(const Tensor& x, std::size_t r0, std::size_t r1) {
  inner_->forward_rows(x, r0, r1);
  const Tensor& fx = inner_->output();
  const std::size_t n = y_.cols();
  for (std::size_t i = r0 * n; i < r1 * n; ++i) y_[i] = fx[i] + x[i];
}

void Residual::backward_rows(const Tensor& gy, std::size_t r0,
                             std::size_t r1) {
  inner_->backward_rows(gy, r0, r1);
  const Tensor& g = inner_->input_grad();
  const std::size_t n = gx_.cols();
  for (std::size_t i = r0 * n; i < r1 * n; ++i) gx_[i] = g[i] + gy[i];
}

void Residual::collect_grad_jobs(std::vector<GradJob>& out) {
  inner_->collect_grad_jobs(out);
}

void Residual::release_step_buffers() {
  Module::release_step_buffers();
  inner_->release_step_buffers();
}

std::unique_ptr<Module> Residual::clone() const {
  return std::make_unique<Residual>(inner_->clone());
}

}  // namespace fedpkd::nn
