#pragma once

#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// Layer normalization over the feature (last) dimension with learned affine
/// parameters gamma and beta.
///
/// Used instead of batch normalization because federated clients train on
/// tiny, skewed batches where running batch statistics diverge between
/// clients; layer norm carries no cross-batch state, which keeps model
/// aggregation (FedAvg/FedProx/FedDF) semantics clean.
class LayerNorm final : public Module {
 public:
  explicit LayerNorm(std::size_t features, float eps = 1e-5f,
                     std::string name = "layer_norm");

  std::size_t out_cols(std::size_t in_cols) const override;
  void prepare(std::size_t m, std::size_t in_cols) override;
  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                    Tensor* out = nullptr) override;
  void backward_rows(const Tensor& gy, std::size_t r0,
                     std::size_t r1) override;
  void collect_grad_jobs(std::vector<GradJob>& out) override;
  void accumulate_grad(Parameter& p) override;
  void release_step_buffers() override;
  std::unique_ptr<Module> clone() const override;

  std::size_t features() const { return features_; }

 private:
  LayerNorm(std::size_t features, float eps, Parameter gamma, Parameter beta);

  /// Normalizes rows [r0, r1) of x into y; also stores x-hat and 1/std when
  /// xhat is non-null (the training pass, which passes both).
  void normalize_rows(const Tensor& x, float* y, float* xhat, float* inv_std,
                      std::size_t r0, std::size_t r1) const;

  std::size_t features_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor xhat_;            // [m, features]
  Tensor inv_std_;         // [m], 1/sqrt(var + eps) per row
  const Tensor* gy_ = nullptr;  // the step's full-batch output gradient
};

}  // namespace fedpkd::nn
