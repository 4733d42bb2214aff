#include "fedpkd/nn/sequential.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedpkd::nn {

Sequential::Sequential(std::vector<std::unique_ptr<Module>> layers)
    : layers_(std::move(layers)) {
  for (const auto& l : layers_) {
    if (!l) throw std::invalid_argument("Sequential: null layer");
  }
}

Sequential& Sequential::add(std::unique_ptr<Module> layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

void Sequential::forward_eval_into(const Tensor& x, Tensor& out) {
  if (layers_.empty()) {
    out = x;
    return;
  }
  // Intermediate hops ping-pong between two scratch buffers; only the last
  // layer writes the caller's tensor. Each layer's eval math is untouched, so
  // the chain is bitwise equal to running the layers one at a time.
  EvalScratch scratch;
  const Tensor* cur = &x;
  Tensor* hop[2] = {&scratch.a(), &scratch.b()};
  std::size_t parity = 0;
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    Tensor& dst = *hop[parity];
    parity ^= 1;
    layers_[i]->forward_eval_into(*cur, dst);
    cur = &dst;
  }
  layers_.back()->forward_eval_into(*cur, out);
}

void Sequential::prepare(std::size_t m, std::size_t in_cols) {
  if (layers_.empty()) {
    Module::prepare(m, in_cols);
    return;
  }
  std::size_t cols = in_cols;
  for (auto& l : layers_) {
    l->prepare(m, cols);
    cols = l->output().cols();
  }
}

void Sequential::forward_rows(const Tensor& x, std::size_t r0,
                              std::size_t r1) {
  if (layers_.empty()) {
    const std::size_t n = y_.cols();
    std::copy(x.data() + r0 * n, x.data() + r1 * n, y_.data() + r0 * n);
    return;
  }
  // Each layer reads the previous layer's output buffer: the chain itself
  // neither copies nor allocates.
  const Tensor* cur = &x;
  for (auto& l : layers_) {
    l->forward_rows(*cur, r0, r1);
    cur = &l->output();
  }
}

void Sequential::backward_rows(const Tensor& gy, std::size_t r0,
                               std::size_t r1) {
  if (layers_.empty()) {
    const std::size_t n = gx_.cols();
    std::copy(gy.data() + r0 * n, gy.data() + r1 * n, gx_.data() + r0 * n);
    return;
  }
  const Tensor* g = &gy;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i]->backward_rows(*g, r0, r1);
    g = &layers_[i]->input_grad();
  }
}

const Tensor& Sequential::output() const {
  return layers_.empty() ? y_ : layers_.back()->output();
}

const Tensor& Sequential::input_grad() const {
  return layers_.empty() ? gx_ : layers_.front()->input_grad();
}

void Sequential::collect_grad_jobs(std::vector<GradJob>& out) {
  for (auto& l : layers_) l->collect_grad_jobs(out);
}

void Sequential::release_step_buffers() {
  Module::release_step_buffers();
  for (auto& l : layers_) l->release_step_buffers();
}

std::unique_ptr<Module> Sequential::clone() const {
  std::vector<std::unique_ptr<Module>> copies;
  copies.reserve(layers_.size());
  for (const auto& l : layers_) copies.push_back(l->clone());
  return std::make_unique<Sequential>(std::move(copies));
}

}  // namespace fedpkd::nn
