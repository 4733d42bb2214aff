#pragma once

#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// Inverted dropout: during training each activation is zeroed with
/// probability p and the survivors are scaled by 1/(1-p), so inference
/// (train = false) is the identity. The mask is drawn from the module's own
/// RNG stream, keeping whole-run determinism.
class Dropout final : public Module {
 public:
  /// p in [0, 1): drop probability. Draws masks from `rng` (copied).
  Dropout(float p, Rng rng);

  /// The whole-batch pass. With train == false it is the identity and, like
  /// a training pass with p == 0, leaves the layer as the identity for a
  /// following backward(), which passes the gradient straight through.
  Tensor forward(const Tensor& x, bool train = true) override;
  /// The identity, as a pure copy: writes no module state.
  void forward_eval_into(const Tensor& x, Tensor& out) override;
  /// Draws the whole batch's mask, element by element in row-major order.
  void prepare(std::size_t m, std::size_t in_cols) override;
  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1) override;
  void backward_rows(const Tensor& gy, std::size_t r0,
                     std::size_t r1) override;
  void release_step_buffers() override;
  std::unique_ptr<Module> clone() const override;

  float drop_probability() const { return p_; }

 private:
  float p_;
  Rng rng_;
  Tensor mask_;  // the 0 / (1/(1-p)) multipliers; empty = identity
};

}  // namespace fedpkd::nn
