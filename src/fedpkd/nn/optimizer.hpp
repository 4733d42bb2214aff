#pragma once

#include <vector>

#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// Base class for first-order optimizers.
///
/// Optimizers hold non-owning pointers to model parameters and must not
/// outlive the model. step() consumes the gradients accumulated by
/// Module::backward; zero_grad() clears them for the next mini-batch.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params);
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;
  virtual ~Optimizer() = default;

  /// Applies one update using the current gradients: begin_step(), then
  /// update(i) for every parameter.
  void step();

  /// Starts a step (Adam advances its bias corrections). Serial.
  virtual void begin_step() {}

  /// Updates params()[i] from its gradient. Elementwise and independent per
  /// parameter, so the updates of one step may run concurrently.
  virtual void update(std::size_t i) = 0;

  /// Zeroes all parameter gradients.
  void zero_grad();

  const std::vector<Parameter*>& params() const { return params_; }

 protected:
  std::vector<Parameter*> params_;
};

/// Adam (Kingma & Ba 2015) with bias correction; the optimizer the paper's
/// evaluation uses for all client and server training (lr = 1e-3).
class Adam final : public Optimizer {
 public:
  struct Options {
    float lr = 0.001f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.0f;
  };

  explicit Adam(std::vector<Parameter*> params);
  Adam(std::vector<Parameter*> params, Options opts);
  void begin_step() override;
  void update(std::size_t i) override;

 private:
  Options opts_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::int64_t t_ = 0;
  float bc1_ = 1.0f;  // 1 - beta1^t
  float bc2_ = 1.0f;  // 1 - beta2^t
};

/// Adds the FedProx proximal gradient mu * (w - w_ref) to each parameter's
/// gradient accumulator. `reference` is the flat global weight vector the
/// round started from (same layout as flatten_parameters). Call between
/// backward() and step().
void add_proximal_gradient(std::vector<Parameter*> params,
                           const Tensor& reference, float mu);

/// The same for one parameter, whose reference weights start at `reference`.
void add_proximal_gradient(Parameter& p, const float* reference, float mu);

}  // namespace fedpkd::nn
