#include "fedpkd/nn/residual.hpp"

#include <optional>
#include <stdexcept>

namespace fedpkd::nn {

Residual::Residual(std::unique_ptr<Module> inner) : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("Residual: null inner module");
}

std::size_t Residual::out_cols(std::size_t in_cols) const {
  const std::size_t inner_cols = inner_->out_cols(in_cols);
  if (inner_cols != in_cols) {
    throw std::invalid_argument(
        "Residual::forward: inner module changed width " +
        std::to_string(in_cols) + " -> " + std::to_string(inner_cols));
  }
  return in_cols;
}

void Residual::prepare(std::size_t m, std::size_t in_cols) {
  Module::prepare(m, in_cols);
  inner_->prepare(m, in_cols);
}

void Residual::forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                            Tensor* out) {
  std::optional<EvalScratch> scratch;
  Tensor* fx_out = nullptr;
  if (out != nullptr) {
    scratch.emplace();
    fx_out = &scratch->a();
    fx_out->ensure_shape(x.shape());
  }
  inner_->forward_rows(x, r0, r1, fx_out);
  const Tensor& fx = fx_out != nullptr ? *fx_out : inner_->output();
  Tensor& y = rows_out(out);
  const std::size_t n = x.cols();
  for (std::size_t i = r0 * n; i < r1 * n; ++i) y[i] = fx[i] + x[i];
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
