#include "fedpkd/nn/layer_norm.hpp"

#include <cmath>
#include <stdexcept>

namespace fedpkd::nn {

LayerNorm::LayerNorm(std::size_t features, float eps, std::string name)
    : features_(features),
      eps_(eps),
      gamma_(name + ".gamma", Tensor::ones({features})),
      beta_(name + ".beta", Tensor::zeros({features})) {
  if (features == 0) throw std::invalid_argument("LayerNorm: zero features");
  if (eps <= 0.0f) throw std::invalid_argument("LayerNorm: eps must be > 0");
}

LayerNorm::LayerNorm(std::size_t features, float eps, Parameter gamma,
                     Parameter beta)
    : features_(features),
      eps_(eps),
      gamma_(std::move(gamma)),
      beta_(std::move(beta)) {}

void LayerNorm::normalize_rows(const Tensor& x, float* y, float* xhat,
                               float* inv_std, std::size_t r0,
                               std::size_t r1) const {
  const std::size_t n = features_;
  const float* gamma = gamma_.value.data();
  const float* beta = beta_.value.data();
  // Double-precision row statistics, float normalization; the training pass
  // also keeps x-hat (recomputed by the same float ops) and 1/std.
  for (std::size_t r = r0; r < r1; ++r) {
    const float* px = x.data() + r * n;
    double mu = 0.0;
    for (std::size_t c = 0; c < n; ++c) mu += px[c];
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const double d = px[c] - mu;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const float is = static_cast<float>(1.0 / std::sqrt(var + eps_));
    const float mu_f = static_cast<float>(mu);
    float* py = y + r * n;
    for (std::size_t c = 0; c < n; ++c) {
      py[c] = gamma[c] * ((px[c] - mu_f) * is) + beta[c];
    }
    if (xhat == nullptr) continue;
    inv_std[r] = is;
    float* ph = xhat + r * n;
    for (std::size_t c = 0; c < n; ++c) ph[c] = (px[c] - mu_f) * is;
  }
}

std::size_t LayerNorm::out_cols(std::size_t in_cols) const {
  if (in_cols != features_) {
    throw std::invalid_argument("LayerNorm::forward: expected [batch, " +
                                std::to_string(features_) + "], got [batch, " +
                                std::to_string(in_cols) + "]");
  }
  return features_;
}

void LayerNorm::prepare(std::size_t m, std::size_t in_cols) {
  Module::prepare(m, in_cols);
  xhat_.ensure_shape({m, features_});
  inv_std_.ensure_shape({m});
}

void LayerNorm::forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                             Tensor* out) {
  if (out != nullptr) {
    normalize_rows(x, out->data(), nullptr, nullptr, r0, r1);
  } else {
    normalize_rows(x, y_.data(), xhat_.data(), inv_std_.data(), r0, r1);
  }
}

void LayerNorm::backward_rows(const Tensor& gy, std::size_t r0,
                              std::size_t r1) {
  if (r0 == 0) gy_ = &gy;
  const std::size_t n = features_;
  const float* gamma = gamma_.value.data();
  for (std::size_t r = r0; r < r1; ++r) {
    const float* g = gy.data() + r * n;
    const float* xh = xhat_.data() + r * n;
    float* pgx = gx_.data() + r * n;
    // dxhat = g * gamma; dx via the standard layer-norm backward identity.
    double sum_dxhat = 0.0;
    double sum_dxhat_xhat = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const double dxh = static_cast<double>(g[c]) * gamma[c];
      sum_dxhat += dxh;
      sum_dxhat_xhat += dxh * xh[c];
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    const double is = inv_std_[r];
    for (std::size_t c = 0; c < n; ++c) {
      const double dxh = static_cast<double>(g[c]) * gamma[c];
      pgx[c] = static_cast<float>(
          is * (dxh - inv_n * sum_dxhat - inv_n * xh[c] * sum_dxhat_xhat));
    }
  }
}

void LayerNorm::collect_grad_jobs(std::vector<GradJob>& out) {
  out.push_back({this, &gamma_});
  out.push_back({this, &beta_});
}

void LayerNorm::accumulate_grad(Parameter& p) {
  if (&p != &gamma_ && &p != &beta_) {
    Module::accumulate_grad(p);
    return;
  }
  // Each column accumulates its rows in ascending order.
  const bool is_gamma = &p == &gamma_;
  const std::size_t n = features_;
  float* grad = p.grad.data();
  for (std::size_t r = 0; r < gy_->rows(); ++r) {
    const float* g = gy_->data() + r * n;
    const float* xh = xhat_.data() + r * n;
    if (is_gamma) {
      for (std::size_t c = 0; c < n; ++c) grad[c] += g[c] * xh[c];
    } else {
      for (std::size_t c = 0; c < n; ++c) grad[c] += g[c];
    }
  }
}

void LayerNorm::release_step_buffers() {
  Module::release_step_buffers();
  xhat_ = Tensor();
  inv_std_ = Tensor();
}

std::unique_ptr<Module> LayerNorm::clone() const {
  Parameter g(gamma_.name, gamma_.value);
  Parameter b(beta_.name, beta_.value);
  return std::unique_ptr<Module>(
      new LayerNorm(features_, eps_, std::move(g), std::move(b)));
}

}  // namespace fedpkd::nn
