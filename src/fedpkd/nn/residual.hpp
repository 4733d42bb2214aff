#pragma once

#include <memory>

#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// Identity skip connection: y = x + f(x).
///
/// The inner module must preserve shape. These blocks give the model zoo its
/// "ResNet-like" depth scaling: ResMLP-11/20/29/56 differ only in how many
/// Residual blocks they stack (see model_zoo.hpp).
class Residual final : public Module {
 public:
  explicit Residual(std::unique_ptr<Module> inner);

  std::size_t out_cols(std::size_t in_cols) const override;
  void prepare(std::size_t m, std::size_t in_cols) override;
  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                    Tensor* out = nullptr) override;
  void backward_rows(const Tensor& gy, std::size_t r0,
                     std::size_t r1) override;
  void collect_grad_jobs(std::vector<GradJob>& out) override;
  void release_step_buffers() override;
  std::unique_ptr<Module> clone() const override;

 private:
  std::unique_ptr<Module> inner_;
};

}  // namespace fedpkd::nn
