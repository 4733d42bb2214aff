// Row-split invariance harness for test_nn: runs a few shared training steps
// (nn::TrainStep) of a model at 1, 2, 3 and 4 lanes and checks that the
// weights and every step's loss are bitwise equal to the 1-lane run.

#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/nn/classifier.hpp"
#include "fedpkd/nn/loss.hpp"
#include "fedpkd/nn/optimizer.hpp"
#include "fedpkd/nn/train_step.hpp"

namespace fedpkd::nn::split_testing {

using tensor::Rng;
using tensor::Tensor;

enum class Update { kAdam, kAdamProx };
constexpr Update kUpdates[] = {Update::kAdam, Update::kAdamProx};

struct StepTrace {
  Tensor weights;
  std::vector<float> losses;
};

/// `steps` TrainStep iterations on a clone of `init`: cross-entropy on cycling
/// labels plus, with `feature_extra`, an MSE pull of the features toward
/// random targets injected at the feature layer (the Eq. 12/16 path).
inline StepTrace run_train_steps(const Classifier& init, Update update,
                                 std::size_t batch, bool feature_extra,
                                 std::size_t steps = 3) {
  Classifier model = init.clone();
  Adam optimizer(model.parameters());
  TrainStep step(model, optimizer);
  const Tensor reference = model.flat_weights();
  if (update == Update::kAdamProx) step.set_proximal(reference, 0.5f);

  Rng rng(1000 + batch);
  Tensor grad_features;
  std::vector<int> labels(batch);
  StepTrace trace;
  for (std::size_t s = 0; s < steps; ++s) {
    const Tensor x = Tensor::randn({batch, model.input_dim()}, rng);
    const Tensor target = Tensor::randn({batch, model.feature_dim()}, rng);
    for (std::size_t i = 0; i < batch; ++i) {
      labels[i] = static_cast<int>((7 * i + s) % model.num_classes());
    }
    trace.losses.push_back(
        step.run(x, [&](const Tensor& logits, const Tensor& features) {
          LossResult ce = softmax_cross_entropy(logits, labels);
          StepLoss out{ce.value, std::move(ce.grad)};
          if (feature_extra) {
            LossResult pull = mse(features, target);
            out.value += pull.value;
            grad_features = std::move(pull.grad);
            out.grad_features = &grad_features;
          }
          return out;
        }));
  }
  trace.weights = model.flat_weights();
  return trace;
}

inline bool same_bits(const StepTrace& a, const StepTrace& b) {
  return a.weights.numel() == b.weights.numel() &&
         a.losses.size() == b.losses.size() &&
         std::memcmp(a.weights.data(), b.weights.data(),
                     a.weights.numel() * sizeof(float)) == 0 &&
         std::memcmp(a.losses.data(), b.losses.data(),
                     a.losses.size() * sizeof(float)) == 0;
}

/// Lanes {1, 2, 3, 4} x `batches` x {without, with the feature extra} x
/// {Adam, Adam + FedProx}: every run must match its 1-lane run bit for bit.
/// Lane counts go through exec::set_num_threads with the hardware clamp
/// lifted, so hosts with fewer cores still split 3 and 4 ways.
inline void expect_split_invariant(const Classifier& init,
                                   const std::vector<std::size_t>& batches) {
  setenv("FEDPKD_THREADS_OVERSUBSCRIBE", "1", 1);
  std::vector<StepTrace> serial;
  for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
    exec::set_num_threads(lanes);
    std::size_t run = 0;
    for (std::size_t batch : batches) {
      for (bool extra : {false, true}) {
        for (Update update : kUpdates) {
          StepTrace trace = run_train_steps(init, update, batch, extra);
          if (lanes == 1) {
            serial.push_back(std::move(trace));
            continue;
          }
          EXPECT_TRUE(same_bits(trace, serial[run++]))
              << init.arch() << " lanes=" << lanes << " batch=" << batch
              << " extra=" << extra
              << " update=" << static_cast<int>(update);
        }
      }
    }
  }
  exec::set_num_threads(1);
  unsetenv("FEDPKD_THREADS_OVERSUBSCRIBE");
}

}  // namespace fedpkd::nn::split_testing
