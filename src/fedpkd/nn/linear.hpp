#pragma once

#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// Fully connected layer: y = x W + b, with W [in, out] and b [out].
///
/// Weights use He (Kaiming) initialization, W ~ N(0, 2/in), matching the
/// ReLU-heavy residual MLPs in the model zoo; biases start at zero.
class Linear final : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         std::string name = "linear");
  /// The same layer with W still zero, for a later draw_init().
  Linear(std::size_t in_features, std::size_t out_features, std::string name);

  /// Overwrites W with the He draws the Rng constructor makes from `rng`.
  void draw_init(Rng& rng);

  std::size_t out_cols(std::size_t in_cols) const override;
  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                    Tensor* out = nullptr) override;
  void backward_rows(const Tensor& gy, std::size_t r0,
                     std::size_t r1) override;
  void collect_grad_jobs(std::vector<GradJob>& out) override;
  void accumulate_grad(Parameter& p) override;
  std::unique_ptr<Module> clone() const override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Linear(std::size_t in, std::size_t out, Parameter w, Parameter b);

  std::size_t in_;
  std::size_t out_;
  Parameter weight_;
  Parameter bias_;
  const Tensor* x_ = nullptr;   // the step's full-batch input
  const Tensor* gy_ = nullptr;  // the step's full-batch output gradient
};

}  // namespace fedpkd::nn
