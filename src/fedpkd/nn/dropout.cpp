#include "fedpkd/nn/dropout.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedpkd::nn {

Dropout::Dropout(float p, Rng rng) : p_(p), rng_(rng) {
  if (p < 0.0f || p >= 1.0f) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& x, bool train) {
  if (!train && x.rank() == 2) {
    Module::prepare(x.rows(), x.cols());
    mask_ = Tensor();
  }
  return Module::forward(x, train);
}

void Dropout::forward_eval_into(const Tensor& x, Tensor& out) { out = x; }

void Dropout::prepare(std::size_t m, std::size_t in_cols) {
  Module::prepare(m, in_cols);
  if (p_ == 0.0f) {
    mask_ = Tensor();
    return;
  }
  mask_.ensure_shape({m, in_cols});
  const float keep_scale = 1.0f / (1.0f - p_);
  for (std::size_t i = 0; i < mask_.numel(); ++i) {
    mask_[i] = rng_.uniform() < p_ ? 0.0f : keep_scale;
  }
}

void Dropout::forward_rows(const Tensor& x, std::size_t r0, std::size_t r1) {
  const std::size_t n = y_.cols();
  if (mask_.empty()) {
    std::copy(x.data() + r0 * n, x.data() + r1 * n, y_.data() + r0 * n);
    return;
  }
  for (std::size_t i = r0 * n; i < r1 * n; ++i) y_[i] = x[i] * mask_[i];
}

void Dropout::backward_rows(const Tensor& gy, std::size_t r0, std::size_t r1) {
  const std::size_t n = gx_.cols();
  if (mask_.empty()) {
    std::copy(gy.data() + r0 * n, gy.data() + r1 * n, gx_.data() + r0 * n);
    return;
  }
  for (std::size_t i = r0 * n; i < r1 * n; ++i) gx_[i] = gy[i] * mask_[i];
}

void Dropout::release_step_buffers() {
  Module::release_step_buffers();
  mask_ = Tensor();
}

std::unique_ptr<Module> Dropout::clone() const {
  return std::make_unique<Dropout>(p_, rng_);
}

}  // namespace fedpkd::nn
