#include "fedpkd/nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "fedpkd/tensor/kernels.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               std::string name)
    : Linear(in_features, out_features, std::move(name)) {
  draw_init(rng);
}

Linear::Linear(std::size_t in_features, std::size_t out_features,
               std::string name)
    : in_(in_features),
      out_(out_features),
      weight_(name + ".weight", Tensor::zeros({in_features, out_features})),
      bias_(name + ".bias", Tensor::zeros({out_features})) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("Linear: zero-sized layer");
  }
}

void Linear::draw_init(Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_));
  for (float& v : weight_.value.flat()) {
    v = static_cast<float>(rng.normal(0.0f, stddev));
  }
}

Linear::Linear(std::size_t in, std::size_t out, Parameter w, Parameter b)
    : in_(in), out_(out), weight_(std::move(w)), bias_(std::move(b)) {}

std::size_t Linear::out_cols(std::size_t in_cols) const {
  if (in_cols != in_) {
    throw std::invalid_argument("Linear::forward: expected [batch, " +
                                std::to_string(in_) + "], got [batch, " +
                                std::to_string(in_cols) + "]");
  }
  return out_;
}

void Linear::forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                          Tensor* out) {
  if (out == nullptr && r0 == 0) x_ = &x;
  tensor::kernels::matmul_bias_rows(x.data(), weight_.value.data(),
                                    bias_.value.data(), rows_out(out).data(),
                                    in_, out_, r0, r1);
}

void Linear::backward_rows(const Tensor& gy, std::size_t r0, std::size_t r1) {
  if (r0 == 0) gy_ = &gy;
  // dx = gy W^T. Each lane packs its own W^T strips from W, which no one
  // writes until the parameter phase.
  tensor::kernels::matmul_tb_rows(gy.data(), weight_.value.data(), gx_.data(),
                                  out_, in_, r0, r1);
}

void Linear::collect_grad_jobs(std::vector<GradJob>& out) {
  out.push_back({this, &weight_});
  out.push_back({this, &bias_});
}

void Linear::accumulate_grad(Parameter& p) {
  if (&p == &weight_) {
    // dW += x^T gy over the whole batch.
    tensor::kernels::matmul_ta_acc_rows(x_->data(), gy_->data(),
                                        weight_.grad.data(), x_->rows(), in_,
                                        out_, 0, in_);
  } else if (&p == &bias_) {
    tensor::sum_rows_accumulate(*gy_, bias_.grad);
  } else {
    Module::accumulate_grad(p);
  }
}

std::unique_ptr<Module> Linear::clone() const {
  Parameter w(weight_.name, weight_.value);
  Parameter b(bias_.name, bias_.value);
  return std::unique_ptr<Module>(
      new Linear(in_, out_, std::move(w), std::move(b)));
}

}  // namespace fedpkd::nn
