// Cross-module property tests: invariants that must hold across random
// inputs, orderings, and the whole architecture zoo.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "fedpkd/core/aggregation.hpp"
#include "fedpkd/core/prototype.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/trainer.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd {
namespace {

using tensor::Rng;
using tensor::Tensor;

// ------------------------------------------------------------- Training ---

TEST(Properties, TrainingIsBitDeterministic) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(51));
  Rng drng(52);
  const data::Dataset train = task.sample(200, drng);
  auto run = [&] {
    Rng m(53);
    nn::Classifier model =
        nn::make_classifier("resmlp11", train.dim(), 10, m);
    fl::TrainOptions opts;
    opts.epochs = 2;
    Rng t(54);
    fl::train_supervised(model, train, opts, t);
    return model.flat_weights();
  };
  EXPECT_EQ(tensor::max_abs_difference(run(), run()), 0.0f);
}

TEST(Properties, TrainingNeverProducesNonFiniteWeights) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(55));
  Rng drng(56);
  const data::Dataset train = task.sample(150, drng);
  for (const std::string& arch : nn::known_archs()) {
    Rng m(57);
    nn::Classifier model = nn::make_classifier(arch, train.dim(), 10, m);
    fl::TrainOptions opts;
    opts.epochs = 1;
    Rng t(58);
    fl::train_supervised(model, train, opts, t);
    EXPECT_FALSE(tensor::has_non_finite(model.flat_weights())) << arch;
  }
}

// -------------------------------------------------------------- Softmax ---

class ShiftInvariance : public ::testing::TestWithParam<float> {};

TEST_P(ShiftInvariance, SoftmaxUnchangedByConstantShift) {
  Rng rng(59);
  Tensor logits = Tensor::randn({6, 8}, rng);
  const Tensor p1 = tensor::softmax_rows(logits);
  Tensor shifted = logits;
  for (std::size_t i = 0; i < shifted.numel(); ++i) shifted[i] += GetParam();
  const Tensor p2 = tensor::softmax_rows(shifted);
  EXPECT_LT(tensor::max_abs_difference(p1, p2), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Shifts, ShiftInvariance,
                         ::testing::Values(-100.0f, -1.0f, 0.5f, 42.0f,
                                           1000.0f));

TEST(Properties, KlIsNonNegativeOnRandomDistributions) {
  Rng rng(60);
  for (int trial = 0; trial < 50; ++trial) {
    const Tensor p = tensor::softmax_rows(Tensor::randn({4, 6}, rng, 0, 3));
    const Tensor q = tensor::softmax_rows(Tensor::randn({4, 6}, rng, 0, 3));
    EXPECT_GE(tensor::kl_divergence_rows(p, q), -1e-5f);
  }
}

// ---------------------------------------------------------- Aggregation ---

TEST(Properties, VarianceAggregationStaysInConvexHull) {
  // Per sample and class, the aggregate must lie between the min and max of
  // the client values (it is a convex combination).
  Rng rng(61);
  const std::vector<Tensor> logits{Tensor::randn({20, 5}, rng),
                                   Tensor::randn({20, 5}, rng),
                                   Tensor::randn({20, 5}, rng)};
  const Tensor agg = core::aggregate_logits_variance_weighted(logits);
  for (std::size_t i = 0; i < agg.numel(); ++i) {
    float lo = logits[0][i], hi = logits[0][i];
    for (const Tensor& t : logits) {
      lo = std::min(lo, t[i]);
      hi = std::max(hi, t[i]);
    }
    EXPECT_GE(agg[i], lo - 1e-5f);
    EXPECT_LE(agg[i], hi + 1e-5f);
  }
}

TEST(Properties, AggregationIsPermutationInvariant) {
  Rng rng(62);
  std::vector<Tensor> logits{Tensor::randn({10, 4}, rng),
                             Tensor::randn({10, 4}, rng),
                             Tensor::randn({10, 4}, rng)};
  const Tensor forward = core::aggregate_logits_variance_weighted(logits);
  std::reverse(logits.begin(), logits.end());
  const Tensor backward = core::aggregate_logits_variance_weighted(logits);
  EXPECT_LT(tensor::max_abs_difference(forward, backward), 1e-5f);
}

// ------------------------------------------------------------ Prototypes ---

TEST(Properties, PrototypesInvariantToSampleOrder) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(63));
  Rng drng(64);
  const data::Dataset d = task.sample(120, drng);
  Rng m(65);
  nn::Classifier model = nn::make_classifier("resmlp11", d.dim(), 10, m);

  std::vector<std::size_t> order(d.size());
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle_rng(66);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle_rng.uniform_index(i)]);
  }
  const data::Dataset shuffled = d.subset(order);

  const auto a = core::compute_local_prototypes(model, d);
  const auto b = core::compute_local_prototypes(model, shuffled);
  EXPECT_EQ(a.present, b.present);
  EXPECT_EQ(a.support, b.support);
  EXPECT_LT(tensor::max_abs_difference(a.matrix, b.matrix), 1e-4f);
}

TEST(Properties, AggregatePrototypesIdempotentForSingleSet) {
  Rng rng(67);
  core::PrototypeSet set(4, 8);
  for (std::size_t j = 0; j < 4; ++j) {
    set.present[j] = true;
    set.support[j] = j + 1;
  }
  set.matrix = Tensor::randn({4, 8}, rng);
  const std::vector<core::PrototypeSet> one{set};
  const auto agg = core::aggregate_prototypes(one);
  EXPECT_EQ(tensor::max_abs_difference(agg.matrix, set.matrix), 0.0f);
  EXPECT_EQ(agg.support, set.support);
}

// ------------------------------------------------------------ Federation ---

TEST(Properties, SingleClientFedAvgEqualsLocalTraining) {
  // With one client, the aggregation step is the identity: the global model
  // must equal the client's locally-trained weights.
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(68));
  const auto bundle = task.make_bundle(300, 200, 100);
  fl::FederationConfig config;
  config.num_clients = 1;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 40;
  config.seed = 69;
  auto fed = fl::build_federation(bundle, fl::PartitionSpec::iid(), config);
  fl::FedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
  fed->begin_round(0);
  algo.run_round(*fed, 0);
  EXPECT_LT(tensor::max_abs_difference(algo.server_model()->flat_weights(),
                                       fed->client(0).model.flat_weights()),
            1e-6f);
}

TEST(Properties, MeterTotalEqualsUplinkPlusDownlink) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(70));
  const auto bundle = task.make_bundle(300, 200, 100);
  fl::FederationConfig config;
  config.num_clients = 3;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 40;
  config.seed = 71;
  auto fed = fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.5),
                                  config);
  fl::FedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
  fed->begin_round(0);
  algo.run_round(*fed, 0);
  EXPECT_EQ(fed->meter.total(),
            fed->meter.total_uplink() + fed->meter.total_downlink());
  // Per-round totals add up to the grand total as well.
  std::size_t by_round = 0;
  for (std::size_t t = 0; t < 4; ++t) by_round += fed->meter.total_for_round(t);
  EXPECT_EQ(by_round, fed->meter.total());
}

// Architecture-parameterized sweep: flat-weights round trip and forward
// determinism for every zoo entry.
class ZooSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooSweep, FlatWeightsRoundTripAndDeterministicForward) {
  Rng rng(72);
  nn::Classifier model = nn::make_classifier(GetParam(), 24, 7, rng);
  const Tensor w = model.flat_weights();
  Rng rng2(73);
  nn::Classifier other = nn::make_classifier(GetParam(), 24, 7, rng2);
  other.set_flat_weights(w);
  Rng xr(74);
  const Tensor x = Tensor::randn({6, 24}, xr);
  EXPECT_EQ(tensor::max_abs_difference(model.forward(x, false),
                                       other.forward(x, false)),
            0.0f);
}

INSTANTIATE_TEST_SUITE_P(Archs, ZooSweep,
                         ::testing::Values("resmlp11", "resmlp20", "resmlp29",
                                           "resmlp56"));

}  // namespace
}  // namespace fedpkd
