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

void Optimizer::step() {
  begin_step();
  for (std::size_t i = 0; i < params_.size(); ++i) update(i);
}

void Optimizer::zero_grad() {
  for (Parameter* p : params_) p->grad.zero();
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

void Adam::begin_step() {
  ++t_;
  bc1_ = 1.0f - std::pow(opts_.beta1, static_cast<float>(t_));
  bc2_ = 1.0f - std::pow(opts_.beta2, static_cast<float>(t_));
}

void Adam::update(std::size_t i) {
  const tensor::kernels::AdamStep s{.lr = opts_.lr,
                                    .beta1 = opts_.beta1,
                                    .beta2 = opts_.beta2,
                                    .eps = opts_.eps,
                                    .weight_decay = opts_.weight_decay,
                                    .bc1 = bc1_,
                                    .bc2 = bc2_};
  Parameter& p = *params_[i];
  tensor::kernels::adam_update(p.value.data(), p.grad.data(), m_[i].data(),
                               v_[i].data(), p.numel(), s);
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
    add_proximal_gradient(*p, reference.data() + offset, mu);
    offset += p->numel();
  }
}

void add_proximal_gradient(Parameter& p, const float* reference, float mu) {
  for (std::size_t k = 0; k < p.numel(); ++k) {
    p.grad[k] += mu * (p.value[k] - reference[k]);
  }
}

}  // namespace fedpkd::nn
