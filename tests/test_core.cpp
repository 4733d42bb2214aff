// Tests for the FedPKD core: prototypes (Eq. 5/8), variance-weighted logit
// aggregation (Eq. 6-7), the data filter (Algorithm 1), and the server
// ensemble distillation (Eq. 11-13).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "fedpkd/core/aggregation.hpp"
#include "fedpkd/core/distill.hpp"
#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/core/filter.hpp"
#include "fedpkd/core/prototype.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::core {
namespace {

using data::SyntheticVision;
using data::SyntheticVisionConfig;
using tensor::Rng;
using tensor::Tensor;

// --------------------------------------------------------------- Prototype ---

TEST(Prototype, SetValidation) {
  PrototypeSet set(3, 4);
  EXPECT_NO_THROW(set.validate());
  set.present[0] = true;  // present without support
  EXPECT_THROW(set.validate(), std::invalid_argument);
  set.support[0] = 2;
  EXPECT_NO_THROW(set.validate());
  EXPECT_EQ(set.present_count(), 1u);
}

TEST(Prototype, LocalPrototypesAreClassMeans) {
  Rng rng(1);
  nn::Classifier model = nn::make_classifier("resmlp11", 8, 3, rng);
  Tensor x = Tensor::randn({6, 8}, rng);
  data::Dataset d(x, {0, 0, 1, 1, 1, 0}, 3);
  const PrototypeSet set = compute_local_prototypes(model, d);
  EXPECT_TRUE(set.present[0]);
  EXPECT_TRUE(set.present[1]);
  EXPECT_FALSE(set.present[2]);
  EXPECT_EQ(set.support[0], 3u);
  EXPECT_EQ(set.support[1], 3u);
  // Row 0 equals the mean feature of samples {0, 1, 5}.
  const Tensor features = fl::compute_features(model, x);
  Tensor manual({nn::kFeatureDim});
  for (std::size_t i : {0u, 1u, 5u}) {
    for (std::size_t c = 0; c < nn::kFeatureDim; ++c) {
      manual[c] += features[i * nn::kFeatureDim + c] / 3.0f;
    }
  }
  EXPECT_LT(tensor::l2_distance(set.matrix.row_copy(0), manual), 1e-4f);
}

TEST(Prototype, AggregateIsSupportWeightedMean) {
  PrototypeSet a(2, 2), b(2, 2);
  a.present[0] = true;
  a.support[0] = 1;
  a.matrix.set_row(0, std::vector<float>{0.0f, 0.0f});
  b.present[0] = true;
  b.support[0] = 3;
  b.matrix.set_row(0, std::vector<float>{4.0f, 8.0f});
  const std::vector<PrototypeSet> sets{a, b};
  const PrototypeSet g = aggregate_prototypes(sets);
  EXPECT_TRUE(g.present[0]);
  EXPECT_FALSE(g.present[1]);
  EXPECT_EQ(g.support[0], 4u);
  EXPECT_FLOAT_EQ(g.matrix.at(0, 0), 3.0f);  // (1*0 + 3*4) / 4
  EXPECT_FLOAT_EQ(g.matrix.at(0, 1), 6.0f);
}

TEST(Prototype, AggregateLiteralPaperScalingShrinks) {
  PrototypeSet a(1, 1), b(1, 1);
  a.present[0] = b.present[0] = true;
  a.support[0] = b.support[0] = 1;
  a.matrix[0] = 2.0f;
  b.matrix[0] = 2.0f;
  const std::vector<PrototypeSet> sets{a, b};
  const PrototypeSet sane = aggregate_prototypes(sets, false);
  const PrototypeSet literal = aggregate_prototypes(sets, true);
  EXPECT_FLOAT_EQ(sane.matrix[0], 2.0f);
  EXPECT_FLOAT_EQ(literal.matrix[0], 1.0f);  // extra 1/|C_j| factor
}

TEST(Prototype, AggregateOnlyOverlapsClassesWithOwners) {
  // Client A has classes {0}, client B has {1}: global set has both, each
  // from its sole owner — the paper's dogs/cats overlap example.
  PrototypeSet a(2, 2), b(2, 2);
  a.present[0] = true;
  a.support[0] = 5;
  a.matrix.set_row(0, std::vector<float>{1.0f, 1.0f});
  b.present[1] = true;
  b.support[1] = 7;
  b.matrix.set_row(1, std::vector<float>{2.0f, 2.0f});
  const std::vector<PrototypeSet> sets{a, b};
  const PrototypeSet g = aggregate_prototypes(sets);
  EXPECT_TRUE(g.present[0]);
  EXPECT_TRUE(g.present[1]);
  EXPECT_FLOAT_EQ(g.matrix.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(g.matrix.at(1, 0), 2.0f);
}

TEST(Prototype, AggregateValidation) {
  EXPECT_THROW(aggregate_prototypes({}), std::invalid_argument);
  PrototypeSet a(2, 2), b(3, 2);
  const std::vector<PrototypeSet> mismatched{a, b};
  EXPECT_THROW(aggregate_prototypes(mismatched), std::invalid_argument);
}

TEST(Prototype, PayloadRoundTrip) {
  Rng rng(2);
  PrototypeSet set(4, 3);
  set.present[1] = set.present[3] = true;
  set.support[1] = 5;
  set.support[3] = 2;
  set.matrix.set_row(1, std::vector<float>{1, 2, 3});
  set.matrix.set_row(3, std::vector<float>{4, 5, 6});
  const PrototypeSet back = from_payload(to_payload(set), 4, 3);
  EXPECT_EQ(back.present, set.present);
  EXPECT_EQ(back.support, set.support);
  EXPECT_EQ(tensor::max_abs_difference(back.matrix, set.matrix), 0.0f);
}

TEST(Prototype, FromPayloadRejectsMalformed) {
  comm::PrototypesPayload payload;
  payload.entries.push_back({9, 1, Tensor::zeros({3})});
  EXPECT_THROW(from_payload(payload, 4, 3), std::runtime_error);  // class id
  payload.entries[0].class_id = 1;
  EXPECT_THROW(from_payload(payload, 4, 2), std::runtime_error);  // dim
  payload.entries[0].centroid = Tensor::zeros({2});
  payload.entries[0].support = 0;
  EXPECT_THROW(from_payload(payload, 4, 2), std::runtime_error);  // support
  payload.entries[0].support = 1;
  payload.entries.push_back(payload.entries[0]);
  EXPECT_THROW(from_payload(payload, 4, 2), std::runtime_error);  // duplicate
}

// ------------------------------------------------------------- Aggregation ---

TEST(Aggregation, MeanIsElementwiseAverage) {
  Tensor a({2, 2}, {0, 2, 4, 6});
  Tensor b({2, 2}, {2, 0, 0, 2});
  const std::vector<Tensor> logits{a, b};
  const Tensor mean = aggregate_logits_mean(logits);
  EXPECT_FLOAT_EQ(mean.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(mean.at(1, 1), 4.0f);
}

TEST(Aggregation, WeightsColumnsSumToOne) {
  Rng rng(3);
  const std::vector<Tensor> logits{Tensor::randn({5, 4}, rng),
                                   Tensor::randn({5, 4}, rng),
                                   Tensor::randn({5, 4}, rng)};
  const Tensor w = variance_aggregation_weights(logits);
  ASSERT_EQ(w.rows(), 3u);
  ASSERT_EQ(w.cols(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    double s = 0.0;
    for (std::size_t c = 0; c < 3; ++c) s += w.at(c, i);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Aggregation, ConfidentClientDominates) {
  // Client 0 is confident (peaked logits) on sample 0; client 1 is flat.
  Tensor confident({1, 4}, {10, 0, 0, 0});
  Tensor flat({1, 4}, {0.1f, 0.0f, 0.1f, 0.0f});
  const std::vector<Tensor> logits{confident, flat};
  const Tensor w = variance_aggregation_weights(logits);
  EXPECT_GT(w.at(0, 0), 0.95f);
  const Tensor agg = aggregate_logits_variance_weighted(logits);
  // The aggregate is pulled almost entirely to the confident client.
  EXPECT_GT(agg.at(0, 0), 9.0f);
}

TEST(Aggregation, UniformFallbackWhenAllFlat) {
  Tensor flat1 = Tensor::full({2, 3}, 1.0f);
  Tensor flat2 = Tensor::full({2, 3}, 3.0f);
  const std::vector<Tensor> logits{flat1, flat2};
  const Tensor w = variance_aggregation_weights(logits);
  for (std::size_t i = 0; i < w.numel(); ++i) EXPECT_FLOAT_EQ(w[i], 0.5f);
  const Tensor agg = aggregate_logits_variance_weighted(logits);
  EXPECT_FLOAT_EQ(agg.at(0, 0), 2.0f);
}

TEST(Aggregation, SingleClientIsIdentity) {
  Rng rng(4);
  Tensor a = Tensor::randn({4, 5}, rng);
  const std::vector<Tensor> logits{a};
  EXPECT_LT(tensor::max_abs_difference(
                aggregate_logits_variance_weighted(logits), a),
            1e-5f);
  EXPECT_LT(tensor::max_abs_difference(aggregate_logits_mean(logits), a),
            1e-5f);
}

TEST(Aggregation, DispatchAndValidation) {
  Rng rng(5);
  Tensor a = Tensor::randn({2, 3}, rng);
  const std::vector<Tensor> logits{a};
  EXPECT_NO_THROW(aggregate_logits(LogitAggregation::kMean, logits));
  EXPECT_NO_THROW(
      aggregate_logits(LogitAggregation::kVarianceWeighted, logits));
  EXPECT_THROW(aggregate_logits_mean({}), std::invalid_argument);
  Tensor b = Tensor::randn({3, 3}, rng);
  const std::vector<Tensor> mismatched{a, b};
  EXPECT_THROW(aggregate_logits_mean(mismatched), std::invalid_argument);
  EXPECT_STREQ(to_string(LogitAggregation::kMean), "mean");
  EXPECT_STREQ(to_string(LogitAggregation::kVarianceWeighted),
               "variance-weighted");
}

TEST(Aggregation, RejectsNonFiniteLogits) {
  Rng rng(7);
  Tensor clean = Tensor::randn({2, 3}, rng);
  Tensor poisoned = clean;
  poisoned.data()[0] = std::numeric_limits<float>::quiet_NaN();
  const std::vector<Tensor> logits{clean, poisoned};
  EXPECT_THROW(aggregate_logits_mean(logits), std::invalid_argument);
  EXPECT_THROW(aggregate_logits_variance_weighted(logits),
               std::invalid_argument);
  poisoned.data()[0] = std::numeric_limits<float>::infinity();
  const std::vector<Tensor> inf_logits{clean, poisoned};
  EXPECT_THROW(aggregate_logits_mean(inf_logits), std::invalid_argument);
}

// ----------------------------------------------------------------- Filter ---

struct FilterFixture {
  Rng rng{6};
  nn::Classifier model = nn::make_classifier("resmlp11", 8, 3, rng);
  Tensor inputs = Tensor::randn({30, 8}, rng);
  Tensor logits;  // [30, 3]
  PrototypeSet protos{3, nn::kFeatureDim};

  FilterFixture() {
    // Pseudo-labels: 10 samples per class, by construction of the logits.
    logits = Tensor::zeros({30, 3});
    for (std::size_t i = 0; i < 30; ++i) logits.at(i, i % 3) = 5.0f;
    // Prototypes: the model's own mean features per pseudo-class, so
    // distances are small but nonzero.
    const Tensor features = fl::compute_features(model, inputs);
    for (std::size_t cls = 0; cls < 3; ++cls) {
      protos.present[cls] = true;
      protos.support[cls] = 10;
      Tensor mean({nn::kFeatureDim});
      for (std::size_t i = cls; i < 30; i += 3) {
        for (std::size_t c = 0; c < nn::kFeatureDim; ++c) {
          mean[c] += features[i * nn::kFeatureDim + c] / 10.0f;
        }
      }
      protos.matrix.set_row(cls, mean.flat());
    }
  }
};

TEST(Filter, KeepsCeilRatioPerClass) {
  FilterFixture f;
  const FilterResult r =
      filter_public_data(f.model, f.inputs, f.logits, f.protos, 0.7f);
  // ceil(0.7 * 10) = 7 per class.
  EXPECT_EQ(r.selected.size(), 21u);
  std::vector<std::size_t> per_class(3, 0);
  for (std::size_t i : r.selected) {
    ++per_class[static_cast<std::size_t>(r.pseudo_labels[i])];
  }
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(per_class[c], 7u);
}

TEST(Filter, RatioOneKeepsEverything) {
  FilterFixture f;
  const FilterResult r =
      filter_public_data(f.model, f.inputs, f.logits, f.protos, 1.0f);
  EXPECT_EQ(r.selected.size(), 30u);
  // Selected is sorted and unique.
  EXPECT_TRUE(std::is_sorted(r.selected.begin(), r.selected.end()));
}

TEST(Filter, KeepsNearestToPrototype) {
  FilterFixture f;
  const FilterResult r =
      filter_public_data(f.model, f.inputs, f.logits, f.protos, 0.5f);
  const std::set<std::size_t> kept(r.selected.begin(), r.selected.end());
  // Every kept sample of a class has distance <= every dropped one.
  for (std::size_t cls = 0; cls < 3; ++cls) {
    float max_kept = 0.0f, min_dropped = 1e30f;
    for (std::size_t i = cls; i < 30; i += 3) {
      if (kept.count(i)) {
        max_kept = std::max(max_kept, r.distances[i]);
      } else {
        min_dropped = std::min(min_dropped, r.distances[i]);
      }
    }
    EXPECT_LE(max_kept, min_dropped + 1e-6f) << "class " << cls;
  }
}

TEST(Filter, PseudoLabelsAreArgmax) {
  FilterFixture f;
  const FilterResult r =
      filter_public_data(f.model, f.inputs, f.logits, f.protos, 0.5f);
  const auto expected = tensor::argmax_rows(f.logits);
  EXPECT_EQ(r.pseudo_labels, expected);
}

TEST(Filter, MissingPrototypeClassIsKeptEntirely) {
  FilterFixture f;
  f.protos.present[1] = false;
  f.protos.support[1] = 0;
  const FilterResult r =
      filter_public_data(f.model, f.inputs, f.logits, f.protos, 0.5f);
  std::size_t class1_kept = 0;
  for (std::size_t i : r.selected) {
    if (r.pseudo_labels[i] == 1) ++class1_kept;
  }
  EXPECT_EQ(class1_kept, 10u);  // no filtering without a prototype
}

TEST(Filter, Validation) {
  FilterFixture f;
  EXPECT_THROW(
      filter_public_data(f.model, f.inputs, f.logits, f.protos, 0.0f),
      std::invalid_argument);
  EXPECT_THROW(
      filter_public_data(f.model, f.inputs, f.logits, f.protos, 1.5f),
      std::invalid_argument);
  Tensor short_logits = Tensor::zeros({5, 3});
  EXPECT_THROW(
      filter_public_data(f.model, f.inputs, short_logits, f.protos, 0.5f),
      std::invalid_argument);
  PrototypeSet wrong(5, nn::kFeatureDim);
  EXPECT_THROW(
      filter_public_data(f.model, f.inputs, f.logits, wrong, 0.5f),
      std::invalid_argument);
}

// Parameterized ratio sweep: the keep count is always sum of per-class ceils
// and is monotone in theta.
class FilterRatioSweep : public ::testing::TestWithParam<float> {};

TEST_P(FilterRatioSweep, KeepCountMatchesCeilFormula) {
  FilterFixture f;
  const float theta = GetParam();
  const FilterResult r =
      filter_public_data(f.model, f.inputs, f.logits, f.protos, theta);
  const auto expected = static_cast<std::size_t>(
      3 * std::ceil(static_cast<double>(theta) * 10.0 - 1e-6));
  EXPECT_EQ(r.selected.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Ratios, FilterRatioSweep,
                         ::testing::Values(0.1f, 0.3f, 0.5f, 0.7f, 0.9f));

// ---------------------------------------------------------------- Distill ---

TEST(Distill, ServerLearnsFromTeacher) {
  SyntheticVision task(SyntheticVisionConfig::synth10(7));
  Rng rng(8);
  const data::Dataset pub = task.sample(300, rng);
  Rng m(9);
  nn::Classifier server = nn::make_classifier("resmlp20", pub.dim(), 10, m);

  // Ideal teacher: one-hot ground truth (upper bound for distillation).
  const Tensor teacher = Tensor::one_hot(pub.labels, 10);
  PrototypeSet protos(10, nn::kFeatureDim);  // no prototypes: pure KD path
  ServerDistillOptions opts;
  opts.epochs = 6;
  opts.delta = 1.0f;
  opts.use_prototype_loss = false;
  Rng t(10);
  server_ensemble_distill(server, pub.features, teacher, pub.labels, protos,
                          opts, t);
  const float acc =
      nn::accuracy(fl::compute_logits(server, pub.features), pub.labels);
  EXPECT_GT(acc, 0.8f);
}

TEST(Distill, PrototypeTermPullsFeaturesTowardPrototypes) {
  // The feature extractor ends in LayerNorm, so features cannot shrink to an
  // arbitrary point — but the L_p term (Eq. 12) must still decrease the mean
  // distance between each sample's features and its class prototype.
  SyntheticVision task(SyntheticVisionConfig::synth10(11));
  Rng rng(12);
  const data::Dataset pub = task.sample(200, rng);
  Rng m(13);
  nn::Classifier server = nn::make_classifier("resmlp11", pub.dim(), 10, m);
  // Random (approximately layer-norm-compatible) prototype per class.
  Rng proto_rng(99);
  PrototypeSet protos(10, nn::kFeatureDim);
  protos.matrix = Tensor::randn({10, nn::kFeatureDim}, proto_rng);
  for (std::size_t j = 0; j < 10; ++j) {
    protos.present[j] = true;
    protos.support[j] = 1;
  }
  auto mean_proto_distance = [&] {
    const Tensor features = fl::compute_features(server, pub.features);
    double acc = 0.0;
    for (std::size_t i = 0; i < pub.size(); ++i) {
      acc += tensor::row_l2_distance(
          features, i,
          protos.matrix.row_copy(static_cast<std::size_t>(pub.labels[i])));
    }
    return acc / static_cast<double>(pub.size());
  };
  const double before = mean_proto_distance();
  const Tensor teacher = Tensor::one_hot(pub.labels, 10);
  ServerDistillOptions opts;
  opts.epochs = 5;
  opts.delta = 0.05f;  // almost pure feature learning
  Rng t(14);
  server_ensemble_distill(server, pub.features, teacher, pub.labels, protos,
                          opts, t);
  const double after = mean_proto_distance();
  EXPECT_LT(after, before * 0.9);
}

TEST(Distill, Validation) {
  Rng rng(15);
  nn::Classifier server = nn::make_classifier("resmlp11", 4, 3, rng);
  PrototypeSet protos(3, nn::kFeatureDim);
  ServerDistillOptions opts;
  Rng t(16);
  EXPECT_THROW(server_ensemble_distill(server, Tensor::zeros({2, 4}),
                                       Tensor::zeros({3, 3}), {0, 1}, protos,
                                       opts, t),
               std::invalid_argument);
  opts.delta = 2.0f;
  EXPECT_THROW(server_ensemble_distill(server, Tensor::zeros({2, 4}),
                                       Tensor::zeros({2, 3}), {0, 1}, protos,
                                       opts, t),
               std::invalid_argument);
}

// ----------------------------------------------------------------- FedPkd ---

std::unique_ptr<fl::Federation> tiny_federation() {
  SyntheticVision task(SyntheticVisionConfig::synth10(17));
  static data::FederatedDataBundle bundle = task.make_bundle(400, 300, 150);
  fl::FederationConfig config;
  config.num_clients = 3;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 50;
  config.seed = 18;
  return fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3),
                              config);
}

core::FedPkd::Options tiny_options() {
  core::FedPkd::Options o;
  o.local_epochs = 1;
  o.public_epochs = 1;
  o.server_epochs = 2;
  o.server_arch = "resmlp20";
  return o;
}

TEST(FedPkdAlgo, OptionValidation) {
  auto fed = tiny_federation();
  auto bad = tiny_options();
  bad.select_ratio = 0.0f;
  EXPECT_THROW(core::FedPkd(*fed, bad), std::invalid_argument);
  bad = tiny_options();
  bad.gamma = -0.1f;
  EXPECT_THROW(core::FedPkd(*fed, bad), std::invalid_argument);
}

TEST(FedPkdAlgo, NamesReflectAblations) {
  auto fed = tiny_federation();
  auto o = tiny_options();
  EXPECT_EQ(core::FedPkd(*fed, o).name(), "FedPKD");
  o.use_prototypes = false;
  EXPECT_EQ(core::FedPkd(*fed, o).name(), "FedPKD(w/o Pro)");
  o = tiny_options();
  o.use_filter = false;
  EXPECT_EQ(core::FedPkd(*fed, o).name(), "FedPKD(w/o D.F.)");
  o = tiny_options();
  o.aggregation = LogitAggregation::kMean;
  EXPECT_EQ(core::FedPkd(*fed, o).name(), "FedPKD(mean-agg)");
}

TEST(FedPkdAlgo, RoundProducesDualKnowledgeTraffic) {
  auto fed = tiny_federation();
  core::FedPkd algo(*fed, tiny_options());
  fed->meter.begin_round(0);
  algo.run_round(*fed, 0);
  EXPECT_GT(fed->meter.total_for_kind(comm::PayloadKind::kLogits), 0u);
  EXPECT_GT(fed->meter.total_for_kind(comm::PayloadKind::kPrototypes), 0u);
  EXPECT_EQ(fed->meter.total_for_kind(comm::PayloadKind::kWeights), 0u);
  EXPECT_TRUE(algo.global_prototypes().has_value());
  EXPECT_GT(algo.global_prototypes()->present_count(), 0u);
}

TEST(FedPkdAlgo, DirectMakeUploadAfterRoundRecomputesFreshLogits) {
  auto fed = tiny_federation();
  core::FedPkd algo(*fed, tiny_options());
  fed->meter.begin_round(0);
  algo.run_round(*fed, 0);

  // The round's uploads were computed from pre-digest weights; the downlink
  // digest then changed every client. A direct make_upload call outside the
  // pipeline must compute from current weights — nothing may serve the
  // stale round's logits.
  std::vector<fl::Client*> active;
  for (std::size_t c = 0; c < fed->num_clients(); ++c) {
    active.push_back(&fed->client(c));
  }
  fl::RoundContext ctx(*fed, 1, active);
  fl::Client& client = fed->client(0);
  const Tensor expected = tensor::softmax_rows(
      client.logits_on(fed->public_data.features), algo.options().temperature);
  fl::PayloadBundle bundle = algo.make_upload(ctx, 0, client);
  const auto& payload = std::get<comm::LogitsPayload>(bundle.parts[0]);
  EXPECT_EQ(tensor::max_abs_difference(payload.logits, expected), 0.0f);
}

TEST(FedPkdAlgo, FilterReducesDownlinkVolume) {
  auto fed_filtered = tiny_federation();
  auto o = tiny_options();
  o.select_ratio = 0.3f;
  core::FedPkd filtered(*fed_filtered, o);
  fed_filtered->meter.begin_round(0);
  filtered.run_round(*fed_filtered, 0);

  auto fed_full = tiny_federation();
  o.select_ratio = 1.0f;
  core::FedPkd full(*fed_full, o);
  fed_full->meter.begin_round(0);
  full.run_round(*fed_full, 0);

  EXPECT_LT(fed_filtered->meter.total_downlink(),
            fed_full->meter.total_downlink());
  EXPECT_LT(filtered.last_filter_keep_fraction(), 0.5f);
  EXPECT_FLOAT_EQ(full.last_filter_keep_fraction(), 1.0f);
}

TEST(FedPkdAlgo, SupportsHeterogeneousClients) {
  SyntheticVision task(SyntheticVisionConfig::synth10(19));
  const data::FederatedDataBundle bundle = task.make_bundle(400, 300, 100);
  fl::FederationConfig config;
  config.num_clients = 3;
  config.client_archs = {"resmlp11", "resmlp20", "resmlp29"};
  config.local_test_per_client = 40;
  config.seed = 20;
  auto fed = fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.5),
                                  config);
  core::FedPkd algo(*fed, tiny_options());
  EXPECT_NO_THROW(algo.run_round(*fed, 0));
  EXPECT_EQ(algo.server_model()->arch(), "resmlp20");
}

TEST(FedPkdAlgo, SurvivesMessageDrops) {
  auto fed = tiny_federation();
  fed->channel.set_drop_probability(0.4, Rng(21));
  core::FedPkd algo(*fed, tiny_options());
  for (std::size_t t = 0; t < 2; ++t) {
    fed->meter.begin_round(t);
    EXPECT_NO_THROW(algo.run_round(*fed, t));
  }
  EXPECT_FALSE(tensor::has_non_finite(algo.server_model()->flat_weights()));
}

TEST(FedPkdAlgo, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    auto fed = tiny_federation();
    core::FedPkd algo(*fed, tiny_options());
    fl::RunOptions opts;
    opts.rounds = 1;
    return fl::run_federation(algo, *fed, opts).final_round();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_TRUE(a.server_accuracy.has_value());
  EXPECT_FLOAT_EQ(*a.server_accuracy, *b.server_accuracy);
  EXPECT_FLOAT_EQ(a.mean_client_accuracy, b.mean_client_accuracy);
  EXPECT_EQ(a.cumulative_bytes, b.cumulative_bytes);
}

}  // namespace
}  // namespace fedpkd::core
