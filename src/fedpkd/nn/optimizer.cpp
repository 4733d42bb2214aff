#include "fedpkd/nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "fedpkd/tensor/kernels.hpp"

namespace fedpkd::nn {

Optimizer::Optimizer(std::vector<Parameter*> params)
    : params_(std::move(params)) {
  for (const Parameter* p : params_) {
    if (p == nullptr) throw std::invalid_argument("Optimizer: null parameter");
  }
}

void Optimizer::zero_grad() {
  for (Parameter* p : params_) p->grad.zero();
}

Sgd::Sgd(std::vector<Parameter*> params, Options opts)
    : Optimizer(std::move(params)), opts_(opts) {
  if (opts_.lr <= 0.0f) throw std::invalid_argument("Sgd: lr must be > 0");
  velocity_.reserve(params_.size());
  for (const Parameter* p : params_) {
    velocity_.emplace_back(p->value.shape());
  }
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    Tensor& v = velocity_[i];
    for (std::size_t k = 0; k < p.numel(); ++k) {
      const float g = p.grad[k] + opts_.weight_decay * p.value[k];
      v[k] = opts_.momentum * v[k] + g;
      p.value[k] -= opts_.lr * v[k];
    }
  }
}

Adam::Adam(std::vector<Parameter*> params)
    : Adam(std::move(params), Options{}) {}

Adam::Adam(std::vector<Parameter*> params, Options opts)
    : Optimizer(std::move(params)), opts_(opts) {
  if (opts_.lr <= 0.0f) throw std::invalid_argument("Adam: lr must be > 0");
  if (opts_.beta1 < 0.0f || opts_.beta1 >= 1.0f || opts_.beta2 < 0.0f ||
      opts_.beta2 >= 1.0f) {
    throw std::invalid_argument("Adam: betas must lie in [0, 1)");
  }
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(opts_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(opts_.beta2, static_cast<float>(t_));
  const tensor::kernels::AdamStep s{.lr = opts_.lr,
                                    .beta1 = opts_.beta1,
                                    .beta2 = opts_.beta2,
                                    .eps = opts_.eps,
                                    .weight_decay = opts_.weight_decay,
                                    .bc1 = bc1,
                                    .bc2 = bc2};
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    tensor::kernels::adam_update(p.value.data(), p.grad.data(), m_[i].data(),
                                 v_[i].data(), p.numel(), s);
  }
}

namespace {
void check_lr(float lr, const char* who) {
  if (lr <= 0.0f) {
    throw std::invalid_argument(std::string(who) + ": lr must be > 0");
  }
}
}  // namespace

void Sgd::set_lr(float lr) {
  check_lr(lr, "Sgd::set_lr");
  opts_.lr = lr;
}

void Adam::set_lr(float lr) {
  check_lr(lr, "Adam::set_lr");
  opts_.lr = lr;
}

RmsProp::RmsProp(std::vector<Parameter*> params, Options opts)
    : Optimizer(std::move(params)), opts_(opts) {
  check_lr(opts_.lr, "RmsProp");
  if (opts_.rho < 0.0f || opts_.rho >= 1.0f) {
    throw std::invalid_argument("RmsProp: rho must be in [0, 1)");
  }
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    v_.emplace_back(p->value.shape());
  }
}

void RmsProp::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    Tensor& v = v_[i];
    for (std::size_t k = 0; k < p.numel(); ++k) {
      const float g = p.grad[k] + opts_.weight_decay * p.value[k];
      v[k] = opts_.rho * v[k] + (1.0f - opts_.rho) * g * g;
      p.value[k] -= opts_.lr * g / (std::sqrt(v[k]) + opts_.eps);
    }
  }
}

void RmsProp::set_lr(float lr) {
  check_lr(lr, "RmsProp::set_lr");
  opts_.lr = lr;
}

void add_proximal_gradient(std::vector<Parameter*> params,
                           const Tensor& reference, float mu) {
  std::size_t total = 0;
  for (const Parameter* p : params) total += p->numel();
  if (reference.rank() != 1 || reference.numel() != total) {
    throw std::invalid_argument("add_proximal_gradient: reference size " +
                                std::to_string(reference.numel()) +
                                " != model size " + std::to_string(total));
  }
  std::size_t offset = 0;
  for (Parameter* p : params) {
    for (std::size_t k = 0; k < p->numel(); ++k) {
      p->grad[k] += mu * (p->value[k] - reference[offset + k]);
    }
    offset += p->numel();
  }
}

}  // namespace fedpkd::nn
