// Unit and property tests for the neural-network substrate: layers (with
// finite-difference gradient checks), losses, optimizers, classifier, zoo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/trainer.hpp"
#include "fedpkd/nn/activation.hpp"
#include "fedpkd/nn/classifier.hpp"
#include "fedpkd/nn/layer_norm.hpp"
#include "fedpkd/nn/linear.hpp"
#include "fedpkd/nn/loss.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/nn/module.hpp"
#include "fedpkd/nn/optimizer.hpp"
#include "fedpkd/nn/residual.hpp"
#include "fedpkd/nn/sequential.hpp"
#include "fedpkd/nn/train_step.hpp"
#include "fedpkd/tensor/kernels.hpp"
#include "fedpkd/tensor/ops.hpp"
#include "split_invariance.hpp"

namespace fedpkd::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;

/// Scalar test loss: L = sum_i probe_i * output_i, whose exact gradient
/// w.r.t. the output is `probe`. Lets us validate backward() against central
/// finite differences of the forward pass alone.
float probe_loss(const Tensor& output, const Tensor& probe) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < output.numel(); ++i) acc += output[i] * probe[i];
  return acc;
}

/// Checks dL/dInput and every dL/dParam of `module` against central
/// differences. Uses double-sided eps and a mixed abs/rel tolerance.
void check_gradients(Module& module, const Tensor& input, std::uint64_t seed,
                     float tolerance = 2e-2f) {
  Rng rng(seed);
  Tensor out = module.forward(input, /*train=*/true);
  Tensor probe = Tensor::randn(out.shape(), rng);

  module.zero_grad();
  Tensor analytic_dx = module.backward(probe);

  constexpr float kEps = 1e-3f;
  // Input gradient.
  Tensor x = input;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + kEps;
    const float up = probe_loss(module.forward(x, false), probe);
    x[i] = saved - kEps;
    const float down = probe_loss(module.forward(x, false), probe);
    x[i] = saved;
    const float numeric = (up - down) / (2.0f * kEps);
    const float denom = std::max(1.0f, std::abs(numeric));
    EXPECT_NEAR(analytic_dx[i] / denom, numeric / denom, tolerance)
        << "input element " << i;
  }
  // Parameter gradients.
  for (Parameter* p : module.parameters()) {
    for (std::size_t i = 0; i < p->numel(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + kEps;
      const float up = probe_loss(module.forward(input, false), probe);
      p->value[i] = saved - kEps;
      const float down = probe_loss(module.forward(input, false), probe);
      p->value[i] = saved;
      const float numeric = (up - down) / (2.0f * kEps);
      const float denom = std::max(1.0f, std::abs(numeric));
      EXPECT_NEAR(p->grad[i] / denom, numeric / denom, tolerance)
          << p->name << " element " << i;
    }
  }
}

// ------------------------------------------------------------ Gradients ---

TEST(Gradients, Linear) {
  Rng rng(1);
  Linear layer(5, 3, rng);
  check_gradients(layer, Tensor::randn({4, 5}, rng), 100);
}

TEST(Gradients, Relu) {
  Rng rng(2);
  Relu layer;
  // Keep inputs away from the kink at 0 where finite differences lie.
  Tensor x = Tensor::randn({6, 4}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.05f) x[i] = 0.2f;
  }
  check_gradients(layer, x, 101);
}

TEST(Relu, BackwardSelectsExactly) {
  // gx = y > 0 ? gy : +0, bit for bit, over the IEEE corner cases: only a
  // strictly positive y (denormals and +inf included) passes gy through, NaN
  // payloads and -0 of gy unchanged; y of +-0, a negative, -inf or NaN gives
  // +0 whatever gy holds. ReLU's own forward never writes -0, -inf or NaN, so
  // the test writes y directly into the step's output buffer.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  float payload_nan;
  const std::uint32_t payload_bits = 0xffc01234;
  std::memcpy(&payload_nan, &payload_bits, sizeof payload_nan);
  const std::vector<float> ys = {0.0f,  -0.0f, denorm, -denorm, kInf,
                                 -kInf, nan,   -nan,   1.5f,    -2.0f};
  const std::vector<float> gys = {payload_nan, nan,   kInf,  -kInf,
                                  -0.0f,       0.0f,  -3.0f, denorm};
  const std::size_t n = ys.size(), m = gys.size();
  Relu relu;
  relu.forward(Tensor({m, n}), true);
  Tensor& y = const_cast<Tensor&>(relu.output());
  Tensor gy({m, n});
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      y.at(r, c) = ys[(r + c) % n];
      gy.at(r, c) = gys[(r * n + c) % m];
    }
  }
  const Tensor gx = relu.backward(gy);
  for (std::size_t i = 0; i < m * n; ++i) {
    const float expected = y[i] > 0.0f ? gy[i] : 0.0f;
    EXPECT_EQ(std::memcmp(gx.data() + i, &expected, sizeof(float)), 0)
        << "y=" << y[i] << " gy=" << gy[i] << " gx=" << gx[i];
    if (!(y[i] > 0.0f)) {
      EXPECT_EQ(gx[i], 0.0f) << "y=" << y[i];
      EXPECT_FALSE(std::signbit(gx[i])) << "y=" << y[i];
    }
  }
}

TEST(Gradients, LayerNorm) {
  Rng rng(4);
  LayerNorm layer(6);
  check_gradients(layer, Tensor::randn({5, 6}, rng), 103);
}

TEST(Gradients, SequentialComposite) {
  Rng rng(5);
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<Linear>(4, 8, rng));
  seq->add(std::make_unique<Relu>());
  seq->add(std::make_unique<LayerNorm>(8));
  seq->add(std::make_unique<Linear>(8, 3, rng));
  check_gradients(*seq, Tensor::randn({3, 4}, rng), 104);
}

TEST(Gradients, ResidualBlock) {
  Rng rng(6);
  auto inner = std::make_unique<Sequential>();
  inner->add(std::make_unique<LayerNorm>(5));
  inner->add(std::make_unique<Linear>(5, 5, rng));
  inner->add(std::make_unique<Relu>());
  Residual block(std::move(inner));
  check_gradients(block, Tensor::randn({4, 5}, rng), 105);
}

// Parameterized sweep across batch sizes and widths for Linear.
class LinearGradientSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LinearGradientSweep, MatchesFiniteDifferences) {
  const auto [batch, in, out] = GetParam();
  Rng rng(static_cast<std::uint64_t>(batch * 289 + in * 17 + out));
  Linear layer(static_cast<std::size_t>(in), static_cast<std::size_t>(out),
               rng);
  check_gradients(layer,
                  Tensor::randn({static_cast<std::size_t>(batch),
                                 static_cast<std::size_t>(in)},
                                rng),
                  200);
}

INSTANTIATE_TEST_SUITE_P(Shapes, LinearGradientSweep,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{1, 7, 2},
                                           std::tuple{5, 3, 3},
                                           std::tuple{8, 2, 9},
                                           std::tuple{2, 16, 4}));

// ------------------------------------------------------------- Modules ---

TEST(Linear, ForwardMatchesManualAffine) {
  Rng rng(7);
  Linear layer(2, 2, rng);
  layer.weight().value = Tensor::matrix({{1, 2}, {3, 4}});
  layer.bias().value = Tensor::vector({10, 20});
  Tensor y = layer.forward(Tensor::matrix({{1, 1}}), false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 14.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 26.0f);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(8);
  Linear layer(3, 2, rng);
  EXPECT_THROW(layer.forward(Tensor::zeros({2, 4})), std::invalid_argument);
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(9);
  Linear layer(2, 2, rng);
  EXPECT_THROW(layer.backward(Tensor::zeros({1, 2})), std::logic_error);
}

TEST(Linear, BackwardAccumulatesAcrossCalls) {
  Rng rng(10);
  Linear layer(2, 2, rng);
  Tensor x = Tensor::randn({3, 2}, rng);
  Tensor g = Tensor::randn({3, 2}, rng);
  layer.forward(x, true);
  layer.backward(g);
  Tensor first = layer.weight().grad;
  layer.forward(x, true);
  layer.backward(g);
  Tensor doubled = first;
  for (std::size_t i = 0; i < doubled.numel(); ++i) doubled[i] *= 2.0f;
  EXPECT_LT(tensor::max_abs_difference(layer.weight().grad, doubled), 1e-5f);
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(11);
  LayerNorm layer(8);
  Tensor y = layer.forward(Tensor::randn({4, 8}, rng, 5.0f, 3.0f), false);
  for (std::size_t r = 0; r < 4; ++r) {
    double mu = 0.0, var = 0.0;
    for (std::size_t c = 0; c < 8; ++c) mu += y.at(r, c);
    mu /= 8.0;
    for (std::size_t c = 0; c < 8; ++c) {
      var += (y.at(r, c) - mu) * (y.at(r, c) - mu);
    }
    var /= 8.0;
    EXPECT_NEAR(mu, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

/// The pre-vectorization LayerNorm loops, kept as the bitwise reference:
/// double row statistics, then h = (x - mu) * is and y = gamma * h + beta.
void layer_norm_reference(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, float eps, Tensor& y,
                          Tensor& xhat) {
  const std::size_t n = x.cols();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double mu = 0.0;
    for (std::size_t c = 0; c < n; ++c) mu += x.at(r, c);
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const double d = x.at(r, c) - mu;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
    for (std::size_t c = 0; c < n; ++c) {
      const float h = (x.at(r, c) - static_cast<float>(mu)) * is;
      xhat.at(r, c) = h;
      y.at(r, c) = gamma[c] * h + beta[c];
    }
  }
}

TEST(LayerNorm, TrainAndEvalForwardAgreeBitwise) {
  // The training forward (which also keeps x-hat) and the inference forward
  // must produce the same bits, and the gamma/beta gradient jobs must equal
  // the old per-element `is_gamma ? g * xh : g` loop, rows in ascending order.
  Rng rng(12);
  const std::size_t m = 7, n = 37;
  LayerNorm layer(n);
  Parameter& gamma = *layer.parameters()[0];
  Parameter& beta = *layer.parameters()[1];
  gamma.value = Tensor::randn({n}, rng, 1.0f, 0.5f);
  beta.value = Tensor::randn({n}, rng);
  const Tensor x = Tensor::randn({m, n}, rng, 2.0f, 3.0f);
  Tensor y_ref({m, n}), xhat({m, n});
  layer_norm_reference(x, gamma.value, beta.value, 1e-5f, y_ref, xhat);
  const Tensor train = layer.forward(x, true);
  const Tensor eval = layer.forward(x, false);
  ASSERT_EQ(std::memcmp(train.data(), y_ref.data(), m * n * sizeof(float)), 0);
  ASSERT_EQ(std::memcmp(eval.data(), y_ref.data(), m * n * sizeof(float)), 0);

  const Tensor g = Tensor::randn({m, n}, rng);
  gamma.grad = Tensor::randn({n}, rng);
  beta.grad = Tensor::randn({n}, rng);
  Tensor gamma_ref = gamma.grad, beta_ref = beta.grad;
  for (std::size_t r = 0; r < m; ++r) {
    for (const bool is_gamma : {true, false}) {
      Tensor& acc = is_gamma ? gamma_ref : beta_ref;
      for (std::size_t c = 0; c < n; ++c) {
        acc[c] += is_gamma ? g.at(r, c) * xhat.at(r, c) : g.at(r, c);
      }
    }
  }
  layer.backward(g);
  EXPECT_EQ(std::memcmp(gamma.grad.data(), gamma_ref.data(), n * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(beta.grad.data(), beta_ref.data(), n * sizeof(float)),
            0);
}

TEST(LayerNorm, RejectsBadConstruction) {
  EXPECT_THROW(LayerNorm(0), std::invalid_argument);
  EXPECT_THROW(LayerNorm(4, -1.0f), std::invalid_argument);
}

TEST(Residual, IdentityWhenInnerIsZero) {
  Rng rng(12);
  auto inner = std::make_unique<Linear>(3, 3, rng);
  inner->weight().value.zero();
  inner->bias().value.zero();
  Residual block(std::move(inner));
  Tensor x = Tensor::randn({2, 3}, rng);
  Tensor y = block.forward(x, false);
  EXPECT_LT(tensor::max_abs_difference(x, y), 1e-6f);
}

TEST(Residual, RejectsShapeChangingInner) {
  Rng rng(13);
  Residual block(std::make_unique<Linear>(3, 4, rng));
  EXPECT_THROW(block.forward(Tensor::zeros({2, 3})), std::invalid_argument);
}

TEST(Sequential, EmptyActsAsIdentity) {
  Sequential seq;
  Tensor x = Tensor::matrix({{1, 2}});
  EXPECT_LT(tensor::max_abs_difference(seq.forward(x), x), 1e-6f);
}

TEST(Sequential, CollectsParametersInOrder) {
  Rng rng(14);
  Sequential seq;
  seq.add(std::make_unique<Linear>(2, 3, rng, "a"));
  seq.add(std::make_unique<Relu>());
  seq.add(std::make_unique<Linear>(3, 1, rng, "b"));
  const auto params = seq.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->name, "a.weight");
  EXPECT_EQ(params[3]->name, "b.bias");
  EXPECT_EQ(seq.parameter_count(), 2u * 3 + 3 + 3 * 1 + 1);
}

TEST(Module, CloneIsDeepCopy) {
  Rng rng(15);
  Linear layer(2, 2, rng);
  auto copy = layer.clone();
  // Same values...
  EXPECT_EQ(tensor::max_abs_difference(flatten_parameters(layer.parameters()),
                                       flatten_parameters(copy->parameters())),
            0.0f);
  // ...but independent storage.
  layer.weight().value[0] += 1.0f;
  EXPECT_NE(flatten_parameters(layer.parameters())[0],
            flatten_parameters(copy->parameters())[0]);
}

TEST(Module, FlattenUnflattenRoundTrip) {
  Rng rng(16);
  Sequential seq;
  seq.add(std::make_unique<Linear>(3, 4, rng));
  seq.add(std::make_unique<LayerNorm>(4));
  Tensor flat = flatten_parameters(seq.parameters());
  Tensor perturbed = flat;
  for (std::size_t i = 0; i < perturbed.numel(); ++i) perturbed[i] += 0.5f;
  unflatten_parameters(perturbed, seq.parameters());
  EXPECT_LT(tensor::max_abs_difference(
                flatten_parameters(seq.parameters()), perturbed),
            1e-6f);
  EXPECT_THROW(unflatten_parameters(Tensor::zeros({3}), seq.parameters()),
               std::invalid_argument);
}

// -------------------------------------------------------------- Losses ---

TEST(Loss, CrossEntropyPerfectPredictionNearZero) {
  Tensor logits({2, 3}, {20, 0, 0, 0, 20, 0});
  const std::vector<int> labels{0, 1};
  const auto r = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.value, 0.0f, 1e-4f);
}

TEST(Loss, CrossEntropyUniformLogitsIsLogN) {
  Tensor logits = Tensor::zeros({4, 10});
  const std::vector<int> labels{0, 3, 7, 9};
  const auto r = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.value, std::log(10.0f), 1e-4f);
}

TEST(Loss, CrossEntropyGradientMatchesFiniteDifference) {
  Rng rng(17);
  Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<int> labels{1, 0, 3};
  const auto r = softmax_cross_entropy(logits, labels);
  constexpr float kEps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor up = logits, down = logits;
    up[i] += kEps;
    down[i] -= kEps;
    const float numeric = (softmax_cross_entropy(up, labels).value -
                           softmax_cross_entropy(down, labels).value) /
                          (2 * kEps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-2f);
  }
}

TEST(Loss, CrossEntropyValidation) {
  Tensor logits = Tensor::zeros({2, 3});
  const std::vector<int> short_labels{0};
  EXPECT_THROW(softmax_cross_entropy(logits, short_labels),
               std::invalid_argument);
  const std::vector<int> bad_labels{0, 5};
  EXPECT_THROW(softmax_cross_entropy(logits, bad_labels),
               std::invalid_argument);
}

TEST(Loss, SoftCrossEntropyMatchesHardWhenOneHot) {
  Rng rng(18);
  Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<int> labels{2, 0, 1};
  const auto hard = softmax_cross_entropy(logits, labels);
  const auto soft = soft_cross_entropy(logits, Tensor::one_hot(labels, 4));
  EXPECT_NEAR(hard.value, soft.value, 1e-5f);
  EXPECT_LT(tensor::max_abs_difference(hard.grad, soft.grad), 1e-6f);
}

TEST(Loss, KlDistillationZeroAtTeacherMatch) {
  Rng rng(19);
  Tensor logits = Tensor::randn({4, 5}, rng);
  const Tensor teacher = tensor::softmax_rows(logits);
  const auto r = kl_distillation(logits, teacher);
  EXPECT_NEAR(r.value, 0.0f, 1e-5f);
  EXPECT_LT(tensor::max(r.grad), 1e-5f);
}

TEST(Loss, KlDistillationGradientMatchesFiniteDifference) {
  Rng rng(20);
  Tensor logits = Tensor::randn({2, 3}, rng);
  Tensor teacher = tensor::softmax_rows(Tensor::randn({2, 3}, rng));
  const float temperature = 2.0f;
  const auto r = kl_distillation(logits, teacher, temperature);
  constexpr float kEps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor up = logits, down = logits;
    up[i] += kEps;
    down[i] -= kEps;
    const float numeric =
        (kl_distillation(up, teacher, temperature).value -
         kl_distillation(down, teacher, temperature).value) /
        (2 * kEps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-2f);
  }
}

TEST(Loss, KlDistillationValidation) {
  Tensor logits = Tensor::zeros({2, 3});
  EXPECT_THROW(kl_distillation(logits, Tensor::zeros({2, 4})),
               std::invalid_argument);
  EXPECT_THROW(kl_distillation(logits, logits, 0.0f), std::invalid_argument);
}

TEST(Loss, MseKnownValueAndGradient) {
  Tensor pred({2}, {1, 3});
  Tensor target({2}, {0, 0});
  const auto r = mse(pred, target);
  EXPECT_FLOAT_EQ(r.value, 5.0f);  // (1 + 9) / 2
  EXPECT_FLOAT_EQ(r.grad[0], 1.0f);
  EXPECT_FLOAT_EQ(r.grad[1], 3.0f);
  EXPECT_THROW(mse(pred, Tensor::zeros({3})), std::invalid_argument);
}

TEST(Loss, AccuracyCounting) {
  Tensor logits({3, 2}, {1, 0, 0, 1, 1, 0});
  const std::vector<int> labels{0, 1, 1};
  EXPECT_NEAR(accuracy(logits, labels), 2.0f / 3.0f, 1e-6f);
}

TEST(Loss, PerClassAccuracy) {
  Tensor logits({4, 2}, {1, 0, 1, 0, 0, 1, 0, 1});
  const std::vector<int> labels{0, 1, 1, 1};
  const auto r = per_class_accuracy(logits, labels, 2);
  EXPECT_FLOAT_EQ(r.accuracy[0], 1.0f);
  EXPECT_NEAR(r.accuracy[1], 2.0f / 3.0f, 1e-6f);
  EXPECT_EQ(r.counts[0], 1u);
  EXPECT_EQ(r.counts[1], 3u);
}

// ----------------------------------------------------------- Optimizers ---

TEST(Optimizer, AdamFirstStepIsLrSized) {
  // With bias correction, |first Adam step| ~= lr regardless of grad scale.
  Rng rng(24);
  Linear layer(1, 1, rng);
  layer.weight().value[0] = 0.0f;
  Adam adam(layer.parameters(), {.lr = 0.01f});
  layer.weight().grad[0] = 123.0f;
  layer.bias().grad[0] = 0.0f;
  adam.step();
  EXPECT_NEAR(layer.weight().value[0], -0.01f, 1e-4f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimize (w - 3)^2 by hand-feeding gradients.
  Rng rng(25);
  Linear layer(1, 1, rng);
  layer.weight().value[0] = 0.0f;
  Adam adam(layer.parameters(), {.lr = 0.1f});
  for (int i = 0; i < 500; ++i) {
    adam.zero_grad();
    layer.weight().grad[0] = 2.0f * (layer.weight().value[0] - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(layer.weight().value[0], 3.0f, 0.05f);
}

TEST(Optimizer, ValidatesOptions) {
  Rng rng(26);
  Linear layer(1, 1, rng);
  EXPECT_THROW(Adam(layer.parameters(), {.lr = -1.0f}), std::invalid_argument);
  EXPECT_THROW(Adam(layer.parameters(), {.lr = 0.1f, .beta1 = 1.0f}),
               std::invalid_argument);
}

TEST(Optimizer, ZeroGradClears) {
  Rng rng(27);
  Linear layer(2, 2, rng);
  layer.weight().grad.fill(5.0f);
  Adam adam(layer.parameters());
  adam.zero_grad();
  EXPECT_EQ(tensor::max(layer.weight().grad), 0.0f);
}

TEST(Optimizer, ProximalGradientPullsTowardReference) {
  Rng rng(28);
  Linear layer(1, 1, rng);
  layer.weight().value[0] = 2.0f;
  layer.bias().value[0] = -1.0f;
  Tensor reference({2});  // zeros
  layer.zero_grad();
  add_proximal_gradient(layer.parameters(), reference, 0.5f);
  EXPECT_NEAR(layer.weight().grad[0], 1.0f, 1e-6f);   // 0.5 * (2 - 0)
  EXPECT_NEAR(layer.bias().grad[0], -0.5f, 1e-6f);
  EXPECT_THROW(
      add_proximal_gradient(layer.parameters(), Tensor::zeros({5}), 0.1f),
      std::invalid_argument);
}

// ----------------------------------------------------------- Classifier ---

TEST(Classifier, FeatureAndLogitShapes) {
  Rng rng(29);
  Classifier model = make_classifier("resmlp20", 16, 10, rng);
  Tensor x = Tensor::randn({5, 16}, rng);
  Tensor f;
  model.features_into(x, f);
  EXPECT_EQ(f.rows(), 5u);
  EXPECT_EQ(f.cols(), kFeatureDim);
  Tensor z = model.forward(x, false);
  EXPECT_EQ(z.cols(), 10u);
  EXPECT_EQ(model.feature_dim(), kFeatureDim);
  EXPECT_EQ(model.num_classes(), 10u);
  EXPECT_EQ(model.input_dim(), 16u);
}

TEST(Classifier, RejectsWrongInputDim) {
  Rng rng(30);
  Classifier model = make_classifier("resmlp11", 8, 4, rng);
  EXPECT_THROW(model.forward(Tensor::zeros({2, 9})), std::invalid_argument);
}

TEST(Classifier, BackwardRequiresHeadForward) {
  Rng rng(31);
  Classifier model = make_classifier("resmlp11", 8, 4, rng);
  // No forward has run yet, so there is no cached pass to backpropagate.
  EXPECT_THROW(model.backward(Tensor::zeros({2, 4})), std::logic_error);
}

TEST(Classifier, CloneIndependent) {
  Rng rng(32);
  Classifier a = make_classifier("resmlp11", 8, 4, rng);
  Classifier b = a.clone();
  EXPECT_EQ(tensor::max_abs_difference(a.flat_weights(), b.flat_weights()),
            0.0f);
  Tensor w = a.flat_weights();
  w[0] += 1.0f;
  a.set_flat_weights(w);
  EXPECT_NE(a.flat_weights()[0], b.flat_weights()[0]);
}

TEST(Classifier, FlatWeightsRoundTrip) {
  Rng rng(33);
  Classifier model = make_classifier("resmlp11", 8, 4, rng);
  Tensor w = model.flat_weights();
  EXPECT_EQ(w.numel(), model.parameter_count());
  Classifier other = make_classifier("resmlp11", 8, 4, rng);
  other.set_flat_weights(w);
  EXPECT_EQ(tensor::max_abs_difference(other.flat_weights(), w), 0.0f);
}

TEST(Classifier, ExtraFeatureGradientChangesBodyGrads) {
  Rng rng(34);
  Classifier model = make_classifier("resmlp11", 8, 4, rng);
  Tensor x = Tensor::randn({3, 8}, rng);

  model.forward(x, true);
  model.zero_grad();
  Tensor zero_glogits = Tensor::zeros({3, 4});
  Tensor extra = Tensor::ones({3, kFeatureDim});
  model.backward(zero_glogits, &extra);
  // With zero logits grad the head got no gradient but the body did.
  const auto params = model.parameters();
  const auto squared_norm = [](const Tensor& t) {
    double acc = 0.0;
    for (std::size_t i = 0; i < t.numel(); ++i) {
      acc += static_cast<double>(t[i]) * t[i];
    }
    return static_cast<float>(acc);
  };
  float body_grad_mag = 0.0f;
  for (std::size_t i = 0; i + 2 < params.size(); ++i) {
    body_grad_mag += squared_norm(params[i]->grad);
  }
  EXPECT_GT(body_grad_mag, 0.0f);
  // Head weight grad is exactly zero.
  EXPECT_EQ(squared_norm(params[params.size() - 2]->grad), 0.0f);
}

// -------------------------------------------------------------- ModelZoo ---

TEST(ModelZoo, KnownArchsOrderedByCapacity) {
  Rng rng(35);
  std::size_t previous = 0;
  for (const std::string& arch : known_archs()) {
    Classifier model = make_classifier(arch, 32, 10, rng);
    EXPECT_GT(model.parameter_count(), previous) << arch;
    previous = model.parameter_count();
    EXPECT_EQ(model.arch(), arch);
    EXPECT_EQ(model.feature_dim(), kFeatureDim);
  }
}

TEST(ModelZoo, UnknownArchThrows) {
  Rng rng(36);
  EXPECT_THROW(make_classifier("resnet20", 8, 4, rng), std::invalid_argument);
  EXPECT_THROW(arch_spec(""), std::invalid_argument);
}

TEST(ModelZoo, DeterministicInitialization) {
  Rng a(77), b(77);
  Classifier m1 = make_classifier("resmlp20", 16, 10, a);
  Classifier m2 = make_classifier("resmlp20", 16, 10, b);
  EXPECT_EQ(tensor::max_abs_difference(m1.flat_weights(), m2.flat_weights()),
            0.0f);
}

TEST(ModelZoo, ForwardIsFiniteAtInit) {
  Rng rng(37);
  for (const std::string& arch : known_archs()) {
    Classifier model = make_classifier(arch, 32, 10, rng);
    Tensor x = Tensor::randn({16, 32}, rng, 0.0f, 2.0f);
    Tensor z = model.forward(x, false);
    EXPECT_FALSE(tensor::has_non_finite(z)) << arch;
  }
}

TEST(ModelZoo, CustomResMlp) {
  Rng rng(38);
  Classifier model = make_resmlp("tiny", 8, 3, 1, 16, rng);
  EXPECT_EQ(model.arch(), "tiny");
  EXPECT_EQ(model.num_classes(), 3u);
  EXPECT_THROW(make_resmlp("bad", 0, 3, 1, 16, rng), std::invalid_argument);
}

// ---------------------------------------------------------- DeferredInit ---

/// Same shape and same bits.
bool identical(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(DeferredInit, FirstReadDrawsTheEagerWeights) {
  for (const std::string& arch : known_archs()) {
    Rng eager_rng(41);
    Classifier eager = make_classifier(arch, 24, 10, eager_rng);
    const Tensor want = eager.flat_weights();

    Classifier by_params = make_classifier_deferred(arch, 24, 10, Rng(41));
    EXPECT_TRUE(by_params.init_pending()) << arch;
    EXPECT_EQ(by_params.parameter_count(), eager.parameter_count()) << arch;
    const std::vector<Parameter*> got = by_params.parameters();
    const std::vector<Parameter*> ref = eager.parameters();
    EXPECT_FALSE(by_params.init_pending()) << arch;
    ASSERT_EQ(got.size(), ref.size()) << arch;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(identical(got[i]->value, ref[i]->value))
          << arch << " " << ref[i]->name;
    }

    Classifier by_flat = make_classifier_deferred(arch, 24, 10, Rng(41));
    EXPECT_TRUE(identical(by_flat.flat_weights(), want)) << arch;

    Rng data(42);
    const Tensor x = Tensor::randn({7, 24}, data);
    Classifier by_forward = make_classifier_deferred(arch, 24, 10, Rng(41));
    EXPECT_TRUE(identical(by_forward.forward(x, /*train=*/true),
                          eager.forward(x, /*train=*/true)))
        << arch;
    EXPECT_TRUE(identical(by_forward.flat_weights(), want)) << arch;

    const Classifier pending = make_classifier_deferred(arch, 24, 10, Rng(41));
    Classifier copy = pending.clone();
    EXPECT_TRUE(copy.init_pending()) << arch;
    EXPECT_TRUE(identical(copy.flat_weights(), want)) << arch;
    EXPECT_TRUE(pending.init_pending()) << arch;
  }
}

TEST(DeferredInit, WholeModelSetFlatWeightsLeavesNothingToDraw) {
  Classifier model = make_classifier_deferred("resmlp20", 16, 10, Rng(43));
  Tensor w({model.parameter_count()});
  for (std::size_t i = 0; i < w.numel(); ++i) {
    w[i] = 0.001f * static_cast<float>(i % 97);
  }
  model.set_flat_weights(w);
  EXPECT_FALSE(model.init_pending());
  EXPECT_TRUE(identical(model.flat_weights(), w));
  Tensor logits;
  model.logits_into(Tensor::zeros({2, 16}), logits);  // drawn: no throw
  EXPECT_EQ(logits.cols(), 10u);
}

TEST(DeferredInit, WrongSizeSetFlatWeightsThrowsAndKeepsTheStream) {
  Classifier model = make_classifier_deferred("resmlp11", 8, 4, Rng(44));
  EXPECT_THROW(model.set_flat_weights(Tensor({model.parameter_count() - 1})),
               std::invalid_argument);
  EXPECT_THROW(model.set_flat_weights(Tensor({model.parameter_count() + 1})),
               std::invalid_argument);
  EXPECT_TRUE(model.init_pending());
  Rng eager_rng(44);
  EXPECT_TRUE(identical(model.flat_weights(),
                        make_classifier("resmlp11", 8, 4, eager_rng)
                            .flat_weights()));
}

TEST(DeferredInit, SharedLanePassesThrowOnAPendingModel) {
  Classifier model = make_classifier_deferred("resmlp11", 8, 4, Rng(45));
  const Tensor x = Tensor::zeros({3, 8});
  Tensor out;
  EXPECT_THROW(model.logits_into(x, out), std::logic_error);
  EXPECT_THROW(model.features_into(x, out), std::logic_error);
  EXPECT_TRUE(model.init_pending());
  model.draw_init();
  EXPECT_FALSE(model.init_pending());
  model.logits_into(x, out);
  EXPECT_EQ(out.cols(), 4u);
}

TEST(DeferredInit, ComputeLogitsOnAPendingModelMatchesEagerAtOneAndFourLanes) {
  Rng eager_rng(46);
  Classifier eager = make_classifier("resmlp20", 24, 10, eager_rng);
  Rng data(47);
  const Tensor x = Tensor::randn({70, 24}, data);
  const Tensor want_logits = fl::compute_logits(eager, x, 16);
  const Tensor want_features = fl::compute_features(eager, x, 16);
  for (std::size_t lanes : {1u, 4u}) {
    exec::set_num_threads(lanes);
    Classifier for_logits = make_classifier_deferred("resmlp20", 24, 10,
                                                     Rng(46));
    EXPECT_TRUE(identical(fl::compute_logits(for_logits, x, 16), want_logits))
        << lanes << " lanes";
    EXPECT_FALSE(for_logits.init_pending());
    Classifier for_features = make_classifier_deferred("resmlp20", 24, 10,
                                                       Rng(46));
    EXPECT_TRUE(identical(fl::compute_features(for_features, x, 16),
                          want_features))
        << lanes << " lanes";
  }
  exec::set_num_threads(1);
}

// ------------------------------------------ Inference against training ---

TEST(InferenceForward, EqualsTheTrainingForwardBitwise) {
  // logits_into/features_into run the training pass's row kernels into
  // EvalScratch hop buffers instead of the step buffers: same bits.
  for (const std::string& arch : known_archs()) {
    Rng rng(60);
    Classifier model = make_classifier(arch, 24, 10, rng);
    for (const std::size_t batch : {1u, 7u, 33u}) {
      const Tensor x = Tensor::randn({batch, 24}, rng);
      const Tensor train_logits = model.forward(x, true);
      const Tensor train_features = model.last_features();
      Tensor logits, features;
      model.logits_into(x, logits);
      model.features_into(x, features);
      EXPECT_TRUE(identical(logits, train_logits))
          << arch << " batch=" << batch;
      EXPECT_TRUE(identical(features, train_features))
          << arch << " batch=" << batch;
    }
  }
}

/// One Adam TrainStep of a copy of `init` on (x, y) at the current lane
/// count. With `probe` non-null, logits_into and features_into run on it
/// between the step's forward and its loss. Returns every parameter
/// gradient, then every weight, of the copy after the step.
std::vector<float> step_around_inference(const Classifier& init,
                                         const Tensor& x,
                                         const std::vector<int>& y,
                                         const Tensor* probe) {
  Classifier model = init.clone();
  Adam adam(model.parameters());
  {
    TrainStep step(model, adam);
    step.run(x, [&](const Tensor& logits, const Tensor&) {
      if (probe != nullptr) {
        Tensor probe_logits, probe_features;
        model.logits_into(*probe, probe_logits);
        model.features_into(*probe, probe_features);
      }
      LossResult ce = softmax_cross_entropy(logits, y);
      return StepLoss{ce.value, std::move(ce.grad)};
    });
  }
  std::vector<float> out;
  for (Parameter* p : model.parameters()) {
    out.insert(out.end(), p->grad.flat().begin(), p->grad.flat().end());
  }
  const Tensor weights = model.flat_weights();
  out.insert(out.end(), weights.flat().begin(), weights.flat().end());
  return out;
}

TEST(InferenceForward, InsideATrainingStepChangesNothing) {
  // Inference writes no module state: neither a step buffer the loss or the
  // backward reads, nor a recorded input (Linear's x for its weight job).
  // The probe batch has other rows and values, so any such write shows.
  setenv("FEDPKD_THREADS_OVERSUBSCRIBE", "1", 1);
  for (const char* arch : {"resmlp11", "resmlp56"}) {
    Rng rng(61);
    const Classifier init = make_classifier(arch, 24, 10, rng);
    const Tensor x = Tensor::randn({12, 24}, rng);
    const Tensor probe = Tensor::randn({5, 24}, rng, 1.0f, 2.0f);
    std::vector<int> y(12);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 10);
    for (const std::size_t lanes : {1u, 4u}) {
      exec::set_num_threads(lanes);
      const std::vector<float> plain =
          step_around_inference(init, x, y, nullptr);
      const std::vector<float> probed =
          step_around_inference(init, x, y, &probe);
      ASSERT_EQ(plain.size(), probed.size());
      EXPECT_EQ(std::memcmp(plain.data(), probed.data(),
                            plain.size() * sizeof(float)),
                0)
          << arch << " at " << lanes << " lanes";
    }
  }
  exec::set_num_threads(1);
  unsetenv("FEDPKD_THREADS_OVERSUBSCRIBE");
}

TEST(ModelZoo, GradientCheckTinyModelEndToEnd) {
  // Full classifier (body + head) against finite differences via the CE loss.
  Rng rng(39);
  Classifier model = make_resmlp("gradcheck", 5, 3, 1, 8, rng);
  Tensor x = Tensor::randn({4, 5}, rng);
  const std::vector<int> y{0, 2, 1, 1};

  Tensor logits = model.forward(x, true);
  model.zero_grad();
  const auto loss = softmax_cross_entropy(logits, y);
  model.backward(loss.grad);

  constexpr float kEps = 1e-2f;
  const auto params = model.parameters();
  for (Parameter* p : params) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p->numel(), 5); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + kEps;
      const float up =
          softmax_cross_entropy(model.forward(x, false), y).value;
      p->value[i] = saved - kEps;
      const float down =
          softmax_cross_entropy(model.forward(x, false), y).value;
      p->value[i] = saved;
      const float numeric = (up - down) / (2 * kEps);
      EXPECT_NEAR(p->grad[i], numeric, 5e-2f) << p->name << "[" << i << "]";
    }
  }
}

// -------------------------------------------------- Row-split invariance ---

TEST(RowSplit, ResMlp11StepIsLaneInvariant) {
  Rng rng(50);
  split_testing::expect_split_invariant(
      make_classifier("resmlp11", 24, 10, rng), {1, 5, 13, 32});
}

TEST(RowSplit, ResMlp56StepIsLaneInvariant) {
  Rng rng(51);
  split_testing::expect_split_invariant(
      make_classifier("resmlp56", 24, 10, rng), {1, 5, 13, 32});
}

TEST(RowSplit, ResMlp56LinearBackwardIsLaneInvariant) {
  // Linear::backward_rows packs its W^T strips on each lane from W itself.
  // A lone 96x96 layer's input gradient is the naive gy W^T bit for bit, and
  // several resmlp56 Adam steps at batch 8, 32 and a ragged 19 leave the
  // same weights at 4 lanes as at 1.
  Rng rng(58);
  Linear layer(96, 96, rng);
  const Tensor x = Tensor::randn({19, 96}, rng);
  layer.forward(x, true);
  const Tensor gy = Tensor::randn({19, 96}, rng);
  const Tensor gx = layer.backward(gy);
  std::vector<float> naive(19 * 96);
  tensor::kernels::matmul_tb_rows_naive(gy.data(),
                                        layer.weight().value.data(),
                                        naive.data(), 96, 96, 0, 19);
  EXPECT_EQ(std::memcmp(gx.data(), naive.data(), naive.size() * sizeof(float)),
            0);

  const Classifier init = make_classifier("resmlp56", 24, 10, rng);
  setenv("FEDPKD_THREADS_OVERSUBSCRIBE", "1", 1);
  for (const std::size_t batch : {8u, 32u, 19u}) {
    exec::set_num_threads(1);
    const split_testing::StepTrace serial = split_testing::run_train_steps(
        init, split_testing::Update::kAdam, batch, false, /*steps=*/5);
    exec::set_num_threads(4);
    const split_testing::StepTrace parallel = split_testing::run_train_steps(
        init, split_testing::Update::kAdam, batch, false, /*steps=*/5);
    EXPECT_TRUE(split_testing::same_bits(parallel, serial)) << "batch=" << batch;
  }
  exec::set_num_threads(1);
  unsetenv("FEDPKD_THREADS_OVERSUBSCRIBE");
}

using RowRanges = std::vector<std::pair<std::size_t, std::size_t>>;

/// Identity layer that records the row ranges its forward phase ran on.
class RangeProbe final : public Module {
 public:
  explicit RangeProbe(RowRanges* ranges) : ranges_(ranges) {}

  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1,
                    Tensor* out) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ranges_->emplace_back(r0, r1);
    }
    const std::size_t n = x.cols();
    std::copy(x.data() + r0 * n, x.data() + r1 * n,
              rows_out(out).data() + r0 * n);
  }
  void backward_rows(const Tensor& gy, std::size_t r0,
                     std::size_t r1) override {
    const std::size_t n = gy.cols();
    std::copy(gy.data() + r0 * n, gy.data() + r1 * n, gx_.data() + r0 * n);
  }
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<RangeProbe>(ranges_);
  }

 private:
  RowRanges* ranges_;
  std::mutex mutex_;
};

/// Runs one Adam TrainStep on a 32-row batch of a model whose first layer
/// logs the forward row ranges; returns them sorted.
RowRanges step_ranges() {
  RowRanges ranges;
  Rng rng(54);
  auto body = std::make_unique<Sequential>();
  body->add(std::make_unique<RangeProbe>(&ranges));
  body->add(std::make_unique<Linear>(32, 256, rng, "fc1"));
  body->add(std::make_unique<Relu>());
  body->add(std::make_unique<Linear>(256, kFeatureDim, rng, "fc2"));
  Classifier model("probe", std::move(body),
                   std::make_unique<Linear>(kFeatureDim, 10, rng, "head"), 32);
  Adam adam(model.parameters());
  TrainStep step(model, adam);
  const Tensor x = Tensor::randn({32, 32}, rng);
  const std::vector<int> y(32, 3);
  step.run(x, [&](const Tensor& logits, const Tensor&) {
    LossResult ce = softmax_cross_entropy(logits, y);
    return StepLoss{ce.value, std::move(ce.grad)};
  });
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

TEST(RowSplit, StepSplitsRowsAcrossLanes) {
  setenv("FEDPKD_THREADS_OVERSUBSCRIBE", "1", 1);
  exec::set_num_threads(4);
  const RowRanges ranges = step_ranges();
  exec::set_num_threads(1);
  unsetenv("FEDPKD_THREADS_OVERSUBSCRIBE");
  const RowRanges expected{{0, 8}, {8, 16}, {16, 24}, {24, 32}};
  EXPECT_EQ(ranges, expected);
}

TEST(RowSplit, ScopedThreadLimitOneKeepsTheStepInline) {
  setenv("FEDPKD_THREADS_OVERSUBSCRIBE", "1", 1);
  exec::set_num_threads(4);
  RowRanges ranges;
  {
    exec::ScopedThreadLimit limit(1);
    ranges = step_ranges();
  }
  exec::set_num_threads(1);
  unsetenv("FEDPKD_THREADS_OVERSUBSCRIBE");
  const RowRanges expected{{0, 32}};
  EXPECT_EQ(ranges, expected);
}

/// Adam that logs the order its per-parameter updates ran in.
class UpdateOrderProbe final : public Optimizer {
 public:
  explicit UpdateOrderProbe(std::vector<Parameter*> params)
      : Optimizer(params), adam_(params) {}
  void begin_step() override { adam_.begin_step(); }
  void update(std::size_t i) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seen.push_back(i);
    }
    adam_.update(i);
  }

  std::vector<std::size_t> seen;

 private:
  Adam adam_;
  std::mutex mutex_;
};

TEST(RowSplit, ParameterPhaseRunsLargestFirstAndStaysBitwise) {
  Rng rng(57);
  const Classifier init = make_classifier("resmlp56", 24, 10, rng);
  const Tensor x = Tensor::randn({16, 24}, rng);
  std::vector<int> y(16);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 10);
  // One step at `lanes`: the final weights and the update order.
  const auto step_at = [&](std::size_t lanes) {
    exec::set_num_threads(lanes);
    Classifier model = init.clone();
    UpdateOrderProbe probe(model.parameters());
    {
      TrainStep step(model, probe);
      step.run(x, [&](const Tensor& logits, const Tensor&) {
        LossResult ce = softmax_cross_entropy(logits, y);
        return StepLoss{ce.value, std::move(ce.grad)};
      });
    }
    exec::set_num_threads(1);
    return std::make_pair(model.flat_weights(), probe.seen);
  };

  Classifier model = init.clone();
  const std::vector<Parameter*> params = model.parameters();
  std::vector<std::size_t> largest_first(params.size());
  std::iota(largest_first.begin(), largest_first.end(), std::size_t{0});
  std::stable_sort(largest_first.begin(), largest_first.end(),
                   [&](std::size_t a, std::size_t b) {
                     return params[a]->numel() > params[b]->numel();
                   });
  const auto [serial_weights, serial_order] = step_at(1);
  EXPECT_EQ(serial_order, largest_first);
  EXPECT_GT(params[serial_order.front()]->numel(),
            params[serial_order.back()]->numel());

  setenv("FEDPKD_THREADS_OVERSUBSCRIBE", "1", 1);
  for (std::size_t lanes = 2; lanes <= 4; ++lanes) {
    auto [weights, order] = step_at(lanes);
    ASSERT_EQ(weights.numel(), serial_weights.numel());
    EXPECT_EQ(std::memcmp(weights.data(), serial_weights.data(),
                          weights.numel() * sizeof(float)),
              0)
        << lanes << " lanes";
    std::sort(order.begin(), order.end());
    std::vector<std::size_t> each_once = largest_first;
    std::sort(each_once.begin(), each_once.end());
    EXPECT_EQ(order, each_once) << lanes << " lanes";
  }
  unsetenv("FEDPKD_THREADS_OVERSUBSCRIBE");
}

TEST(RowSplit, TrainStepRejectsAForeignOptimizer) {
  Rng rng(55);
  Classifier model = make_classifier("resmlp11", 8, 4, rng);
  Classifier other = make_classifier("resmlp11", 8, 4, rng);
  Adam adam(other.parameters());
  EXPECT_THROW(TrainStep(model, adam), std::invalid_argument);
}

TEST(RowSplit, StepBuffersAreReleasedWithTheStep) {
  Rng rng(56);
  Classifier model = make_classifier("resmlp11", 8, 4, rng);
  Adam adam(model.parameters());
  const Tensor x = Tensor::randn({6, 8}, rng);
  const std::vector<int> y{0, 1, 2, 3, 0, 1};
  {
    TrainStep step(model, adam);
    step.run(x, [&](const Tensor& logits, const Tensor&) {
      LossResult ce = softmax_cross_entropy(logits, y);
      return StepLoss{ce.value, std::move(ce.grad)};
    });
    EXPECT_EQ(model.logits().rows(), 6u);
  }
  EXPECT_TRUE(model.logits().empty());
  EXPECT_TRUE(model.last_features().empty());
  // Without a live training pass, backward has nothing to run on.
  EXPECT_THROW(model.backward(Tensor::zeros({6, 4})), std::logic_error);
}

}  // namespace
}  // namespace fedpkd::nn
