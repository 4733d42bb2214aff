// Tests for the convolutional substrate: Conv2d (with finite-difference
// gradient checks), pooling layers, the ResCNN zoo, and image-mode synthetic
// data.

#include <gtest/gtest.h>

#include <cmath>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/fl/trainer.hpp"
#include "fedpkd/nn/conv.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/ops.hpp"
#include "split_invariance.hpp"

namespace fedpkd::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;

float probe_loss(const Tensor& output, const Tensor& probe) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < output.numel(); ++i) acc += output[i] * probe[i];
  return acc;
}

void check_gradients(Module& module, const Tensor& input, std::uint64_t seed,
                     float tolerance = 3e-2f) {
  Rng rng(seed);
  Tensor out = module.forward(input, /*train=*/true);
  Tensor probe = Tensor::randn(out.shape(), rng);
  module.zero_grad();
  Tensor analytic_dx = module.backward(probe);

  constexpr float kEps = 1e-2f;
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

// ---------------------------------------------------------------- Conv2d ---

TEST(Conv2d, OutputGeometry) {
  Rng rng(1);
  Conv2d same({3, 8, 8}, 6, 3, 1, 1, rng);
  EXPECT_EQ(same.output_shape(), (ImageShape{6, 8, 8}));
  Conv2d strided({3, 8, 8}, 4, 3, 2, 1, rng);
  EXPECT_EQ(strided.output_shape().height, 4u);  // floor((8+2-3)/2)+1
  EXPECT_THROW(Conv2d({3, 2, 2}, 4, 5, 1, 0, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d({0, 8, 8}, 4, 3, 1, 1, rng), std::invalid_argument);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  // 1x1 kernel with identity weight on a single channel copies the input.
  Rng rng(2);
  Conv2d conv({1, 4, 4}, 1, 1, 1, 0, rng);
  conv.parameters()[0]->value.fill(1.0f);  // [1,1] weight
  conv.parameters()[1]->value.fill(0.0f);
  Tensor x = Tensor::randn({2, 16}, rng);
  Tensor y = conv.forward(x, false);
  EXPECT_LT(tensor::max_abs_difference(x, y), 1e-6f);
}

TEST(Conv2d, KnownBoxFilter) {
  // 3x3 all-ones kernel, zero bias, on a one-hot image: the output is the
  // 3x3 neighbourhood indicator of the hot pixel.
  Rng rng(3);
  Conv2d conv({1, 4, 4}, 1, 3, 1, 1, rng);
  conv.parameters()[0]->value.fill(1.0f);
  conv.parameters()[1]->value.fill(0.0f);
  Tensor x = Tensor::zeros({1, 16});
  x[5] = 1.0f;  // position (1, 1)
  Tensor y = conv.forward(x, false);
  for (std::size_t iy = 0; iy < 4; ++iy) {
    for (std::size_t ix = 0; ix < 4; ++ix) {
      const bool neighbour = iy <= 2 && ix <= 2;
      EXPECT_FLOAT_EQ(y[iy * 4 + ix], neighbour ? 1.0f : 0.0f)
          << iy << "," << ix;
    }
  }
}

TEST(Conv2d, GradientCheckSmall) {
  Rng rng(4);
  Conv2d conv({2, 4, 4}, 3, 3, 1, 1, rng);
  check_gradients(conv, Tensor::randn({2, 32}, rng), 100);
}

TEST(Conv2d, GradientCheckStrided) {
  Rng rng(5);
  Conv2d conv({1, 6, 6}, 2, 3, 3, 0, rng);
  check_gradients(conv, Tensor::randn({2, 36}, rng), 101);
}

TEST(Conv2d, RejectsWrongInputWidth) {
  Rng rng(6);
  Conv2d conv({3, 4, 4}, 2, 3, 1, 1, rng);
  EXPECT_THROW(conv.forward(Tensor::zeros({1, 40})), std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor::zeros({1, 32})), std::logic_error);
}

TEST(Conv2d, CloneIsDeepCopy) {
  Rng rng(7);
  Conv2d conv({2, 4, 4}, 2, 3, 1, 1, rng);
  auto copy = conv.clone();
  Tensor x = Tensor::randn({1, 32}, rng);
  EXPECT_EQ(tensor::max_abs_difference(conv.forward(x, false),
                                       copy->forward(x, false)),
            0.0f);
  conv.parameters()[0]->value[0] += 1.0f;
  EXPECT_GT(tensor::max_abs_difference(conv.forward(x, false),
                                       copy->forward(x, false)),
            0.0f);
}

// --------------------------------------------------------------- Pooling ---

TEST(GlobalAvgPool, AveragesEachChannel) {
  GlobalAvgPool pool({2, 2, 2});
  Tensor x({1, 8}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
}

TEST(GlobalAvgPool, GradientCheck) {
  Rng rng(8);
  GlobalAvgPool pool({3, 4, 4});
  check_gradients(pool, Tensor::randn({2, 48}, rng), 102);
}

TEST(AvgPool2x2, HalvesSpatialDims) {
  AvgPool2x2 pool({1, 4, 4});
  EXPECT_EQ(pool.output_shape(), (ImageShape{1, 2, 2}));
  Tensor x({1, 16}, {1, 1, 2, 2,
                     1, 1, 2, 2,
                     3, 3, 4, 4,
                     3, 3, 4, 4});
  Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], 3.0f);
  EXPECT_FLOAT_EQ(y[3], 4.0f);
}

TEST(AvgPool2x2, GradientCheck) {
  Rng rng(9);
  AvgPool2x2 pool({2, 4, 4});
  check_gradients(pool, Tensor::randn({2, 32}, rng), 103);
}

TEST(AvgPool2x2, RejectsOddDims) {
  EXPECT_THROW(AvgPool2x2({1, 5, 4}), std::invalid_argument);
}

// ---------------------------------------------------------------- ResCNN ---

TEST(ResCnn, BuildsWithSharedFeatureSpace) {
  Rng rng(10);
  Classifier model = make_rescnn("rescnn8", 3, 8, 10, rng);
  EXPECT_EQ(model.arch(), "rescnn8");
  EXPECT_EQ(model.input_dim(), 3u * 8 * 8);
  EXPECT_EQ(model.feature_dim(), kFeatureDim);
  Tensor x = Tensor::randn({4, 192}, rng);
  Tensor z = model.forward(x, false);
  EXPECT_EQ(z.cols(), 10u);
  EXPECT_FALSE(tensor::has_non_finite(z));
}

TEST(ResCnn, CapacityOrdering) {
  Rng rng(11);
  Classifier small = make_rescnn("rescnn8", 3, 8, 10, rng);
  Classifier large = make_rescnn("rescnn14", 3, 8, 10, rng);
  EXPECT_GT(large.parameter_count(), small.parameter_count());
  EXPECT_THROW(make_rescnn("rescnn99", 3, 8, 10, rng), std::invalid_argument);
  EXPECT_THROW(make_rescnn("rescnn8", 3, 7, 10, rng), std::invalid_argument);
}

TEST(ResCnn, LearnsImageModeTask) {
  data::SyntheticVision task(
      data::SyntheticVisionConfig::synth10_images(13));
  Rng rng(14);
  const data::Dataset train = task.sample(600, rng);
  const data::Dataset test = task.sample(300, rng);
  EXPECT_EQ(train.dim(), 192u);
  Rng m(15);
  Classifier model = make_rescnn("rescnn8", 3, 8, 10, m);
  const float before = fl::evaluate_accuracy(model, test);
  fl::TrainOptions opts;
  opts.epochs = 8;
  Rng t(16);
  fl::train_supervised(model, train, opts, t);
  const float after = fl::evaluate_accuracy(model, test);
  EXPECT_GT(after, before + 0.15f);
  EXPECT_GT(after, 0.3f);
}

TEST(ResCnn, StepIsLaneInvariant) {
  // Conv2d, both pools and the conv residual blocks under the shared step.
  // The row grain scales with the parameter count, so this small CNN needs
  // 64 rows before it splits four ways.
  Rng rng(17);
  split_testing::expect_split_invariant(make_rescnn("rescnn8", 3, 8, 10, rng),
                                        {1, 5, 13, 32, 64});
}

// ------------------------------------------------------------- ImageMode ---

TEST(ImageMode, SampleDims) {
  const auto cfg = data::SyntheticVisionConfig::synth10_images(17);
  EXPECT_EQ(cfg.sample_dim(), 192u);
  data::SyntheticVision task(cfg);
  Rng rng(18);
  const data::Dataset d = task.sample(50, rng);
  EXPECT_EQ(d.dim(), 192u);
  EXPECT_EQ(d.num_classes, 10u);
}

TEST(ImageMode, BlurInducesSpatialCorrelation) {
  // Neighbouring pixels must correlate more than distant ones — the property
  // convolutions exploit and the blur exists to create.
  data::SyntheticVision task(
      data::SyntheticVisionConfig::synth10_images(19));
  Rng rng(20);
  const data::Dataset d = task.sample(400, rng);
  const std::size_t size = 8, plane = 64;
  auto corr = [&](std::size_t a, std::size_t b) {
    double ma = 0, mb = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      ma += d.features[i * 192 + a];
      mb += d.features[i * 192 + b];
    }
    ma /= d.size();
    mb /= d.size();
    double cov = 0, va = 0, vb = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      const double xa = d.features[i * 192 + a] - ma;
      const double xb = d.features[i * 192 + b] - mb;
      cov += xa * xb;
      va += xa * xa;
      vb += xb * xb;
    }
    return cov / std::sqrt(va * vb + 1e-12);
  };
  // Channel 0, pixel (3,3) vs neighbour (3,4) and vs far pixel (7,7)...
  const std::size_t center = 3 * size + 3;
  const double near = std::abs(corr(center, center + 1));
  const double far = std::abs(corr(center, plane - 1));
  EXPECT_GT(near, far);
}

TEST(ImageMode, ImageFederationRunsOneRound) {
  // Smoke: CNN clients inside the full FedPKD loop on image data.
  data::SyntheticVision task(
      data::SyntheticVisionConfig::synth10_images(21));
  const auto bundle = task.make_bundle(200, 100, 60);
  // build_federation's zoo only knows MLPs, so assemble clients manually.
  fl::FederationConfig config;
  config.num_clients = 2;
  config.client_archs = {"resmlp11"};  // placeholder models, replaced below
  config.local_test_per_client = 30;
  config.seed = 23;
  auto fed = fl::build_federation(bundle, fl::PartitionSpec::iid(), config);
  for (std::size_t vc = 0; vc < fed->num_clients(); ++vc) {
    fl::Client& client = fed->client(vc);
    Rng mr(100 + static_cast<std::uint64_t>(client.id));
    client.model = make_rescnn("rescnn8", 3, 8, 10, mr);
  }
  core::FedPkd::Options o;
  o.local_epochs = 1;
  o.public_epochs = 1;
  o.server_epochs = 1;
  o.server_arch = "resmlp20";  // MLP server distilling from CNN clients
  core::FedPkd algo(*fed, o);
  EXPECT_NO_THROW(algo.run_round(*fed, 0));
  EXPECT_FALSE(tensor::has_non_finite(algo.server_model()->flat_weights()));
}

}  // namespace
}  // namespace fedpkd::nn
