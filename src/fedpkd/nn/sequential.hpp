#pragma once

#include <memory>
#include <vector>

#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// Ordered composition of modules: forward applies them left-to-right,
/// backward right-to-left.
class Sequential final : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<std::unique_ptr<Module>> layers);

  /// Appends a layer; returns *this for builder-style chaining.
  Sequential& add(std::unique_ptr<Module> layer);

  std::size_t out_cols(std::size_t in_cols) const override;
  void prepare(std::size_t m, std::size_t in_cols) override;
  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                    Tensor* out = nullptr) override;
  void backward_rows(const Tensor& gy, std::size_t r0,
                     std::size_t r1) override;
  /// The last layer's output and the first layer's input gradient; an
  /// empty chain copies its input (and gradient) through.
  const Tensor& output() const override;
  const Tensor& input_grad() const override;
  void collect_grad_jobs(std::vector<GradJob>& out) override;
  void release_step_buffers() override;
  std::unique_ptr<Module> clone() const override;

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace fedpkd::nn
