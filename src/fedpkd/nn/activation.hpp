#pragma once

#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// Elementwise rectified linear unit: y = max(x, 0).
class Relu final : public Module {
 public:
  Relu() = default;

  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                    Tensor* out = nullptr) override;
  /// Masks with y > 0, which holds exactly where x > 0.
  void backward_rows(const Tensor& gy, std::size_t r0,
                     std::size_t r1) override;
  std::unique_ptr<Module> clone() const override;
};

}  // namespace fedpkd::nn
