#include "fedpkd/nn/sequential.hpp"

#include <algorithm>
#include <optional>
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

std::size_t Sequential::out_cols(std::size_t in_cols) const {
  for (const auto& l : layers_) in_cols = l->out_cols(in_cols);
  return in_cols;
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
                              std::size_t r1, Tensor* out) {
  if (layers_.empty()) {
    const std::size_t n = x.cols();
    std::copy(x.data() + r0 * n, x.data() + r1 * n,
              rows_out(out).data() + r0 * n);
    return;
  }
  // Training: each layer reads the previous layer's output buffer, so the
  // chain itself neither copies nor allocates. Inference: the hops alternate
  // between two scratch buffers that stay warm across calls.
  std::optional<EvalScratch> scratch;
  if (out != nullptr) scratch.emplace();
  const Tensor* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Module& layer = *layers_[i];
    Tensor* dst = out;
    if (out != nullptr && i + 1 < layers_.size()) {
      dst = i % 2 == 0 ? &scratch->a() : &scratch->b();
      dst->ensure_shape({x.rows(), layer.out_cols(cur->cols())});
    }
    layer.forward_rows(*cur, r0, r1, dst);
    cur = dst != nullptr ? dst : &layer.output();
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
