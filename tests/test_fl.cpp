// Tests for the FL framework: trainers, metrics, federation construction,
// and the protocol behaviour of the baseline algorithms.

#include <gtest/gtest.h>

#include <sstream>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/core/fedproto.hpp"
#include "fedpkd/data/stats.hpp"
#include "fedpkd/fl/dsfl.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/feddf.hpp"
#include "fedpkd/fl/fedet.hpp"
#include "fedpkd/fl/fedmd.hpp"
#include "fedpkd/fl/fedprox.hpp"
#include "fedpkd/fl/trainer.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::fl {
namespace {

using data::SyntheticVision;
using data::SyntheticVisionConfig;
using tensor::Rng;
using tensor::Tensor;

data::FederatedDataBundle small_bundle(std::uint64_t seed = 3) {
  SyntheticVision task(SyntheticVisionConfig::synth10(seed));
  return task.make_bundle(600, 400, 200);
}

std::unique_ptr<Federation> small_federation(
    PartitionSpec spec = PartitionSpec::dirichlet(0.5),
    std::size_t clients = 3, std::vector<std::string> archs = {"resmlp11"}) {
  FederationConfig config;
  config.num_clients = clients;
  config.client_archs = std::move(archs);
  config.client_defaults.local_epochs = 1;
  config.client_defaults.batch_size = 32;
  config.local_test_per_client = 60;
  config.seed = 5;
  static data::FederatedDataBundle bundle = small_bundle();
  return build_federation(bundle, spec, config);
}

// ----------------------------------------------------------------- Trainer ---

TEST(Trainer, SupervisedReducesLossAndLearns) {
  SyntheticVision task(SyntheticVisionConfig::synth10(1));
  Rng rng(2);
  const data::Dataset train = task.sample(600, rng);
  const data::Dataset test = task.sample(300, rng);
  Rng model_rng(3);
  nn::Classifier model = nn::make_classifier("resmlp11", train.dim(),
                                             train.num_classes, model_rng);
  const float before = evaluate_accuracy(model, test);
  TrainOptions opts;
  opts.epochs = 8;
  Rng train_rng(4);
  const TrainStats stats = train_supervised(model, train, opts, train_rng);
  const float after = evaluate_accuracy(model, test);
  EXPECT_GT(stats.steps, 0u);
  EXPECT_GT(after, before + 0.2f);
  EXPECT_GT(after, 0.4f);
}

TEST(Trainer, SupervisedThrowsOnEmptyDataset) {
  Rng rng(5);
  nn::Classifier model = nn::make_classifier("resmlp11", 4, 2, rng);
  data::Dataset empty;
  empty.features = Tensor::zeros({0, 4});
  empty.num_classes = 2;
  TrainOptions opts;
  EXPECT_THROW(train_supervised(model, empty, opts, rng),
               std::invalid_argument);
}

TEST(Trainer, ProximalTermKeepsWeightsCloser) {
  SyntheticVision task(SyntheticVisionConfig::synth10(6));
  Rng rng(7);
  const data::Dataset train = task.sample(300, rng);
  Rng m1(8), m2(8);
  nn::Classifier free_model = nn::make_classifier("resmlp11", train.dim(),
                                                  train.num_classes, m1);
  nn::Classifier prox_model = nn::make_classifier("resmlp11", train.dim(),
                                                  train.num_classes, m2);
  const Tensor start = free_model.flat_weights();

  TrainOptions free_opts;
  free_opts.epochs = 3;
  Rng t1(9);
  train_supervised(free_model, train, free_opts, t1);

  TrainOptions prox_opts;
  prox_opts.epochs = 3;
  prox_opts.proximal_mu = 1.0f;
  Rng t2(9);
  train_supervised(prox_model, train, prox_opts, t2);

  const float free_drift =
      tensor::l2_distance(free_model.flat_weights(), start);
  const float prox_drift =
      tensor::l2_distance(prox_model.flat_weights(), start);
  EXPECT_LT(prox_drift, free_drift);
}

TEST(Trainer, PrototypeRegularizerPullsFeatures) {
  // Training with a strong prototype pull should leave class features closer
  // to their target prototypes than training without it.
  SyntheticVision task(SyntheticVisionConfig::synth10(10));
  Rng rng(11);
  const data::Dataset train = task.sample(300, rng);
  Rng m(12);
  nn::Classifier model = nn::make_classifier("resmlp11", train.dim(),
                                             train.num_classes, m);
  const Tensor protos = Tensor::zeros({10, nn::kFeatureDim});  // pull to 0
  std::vector<bool> present(10, true);

  TrainOptions opts;
  opts.epochs = 4;
  opts.prototype_matrix = &protos;
  opts.prototype_class_present = &present;
  opts.prototype_epsilon = 20.0f;
  Rng t(13);
  train_supervised(model, train, opts, t);
  const Tensor features = compute_features(model, train.features);
  EXPECT_LT(tensor::mean(tensor::variance_per_row(features)), 1.0f);
}

TEST(Trainer, DistillMovesStudentTowardTeacher) {
  SyntheticVision task(SyntheticVisionConfig::synth10(14));
  Rng rng(15);
  const data::Dataset pub = task.sample(300, rng);
  Rng m(16);
  nn::Classifier student = nn::make_classifier("resmlp11", pub.dim(),
                                               pub.num_classes, m);
  // Synthetic teacher: one-hot on the true labels.
  DistillSet set{pub.features, Tensor::one_hot(pub.labels, 10), pub.labels};
  const Tensor before = compute_logits(student, pub.features);
  const float kl_before = tensor::kl_divergence_rows(
      set.teacher_probs, tensor::softmax_rows(before));
  TrainOptions opts;
  opts.epochs = 6;
  Rng t(17);
  train_distill(student, set, 0.5f, opts, t);
  const Tensor after = compute_logits(student, pub.features);
  const float kl_after = tensor::kl_divergence_rows(
      set.teacher_probs, tensor::softmax_rows(after));
  EXPECT_LT(kl_after, kl_before * 0.5f);
}

TEST(Trainer, DistillValidation) {
  Rng rng(18);
  nn::Classifier model = nn::make_classifier("resmlp11", 4, 3, rng);
  DistillSet bad{Tensor::zeros({2, 4}), Tensor::zeros({3, 3}), {0, 1}};
  TrainOptions opts;
  EXPECT_THROW(train_distill(model, bad, 0.5f, opts, rng),
               std::invalid_argument);
  DistillSet ok{Tensor::zeros({2, 4}),
                tensor::softmax_rows(Tensor::zeros({2, 3})), {0, 1}};
  EXPECT_THROW(train_distill(model, ok, 1.5f, opts, rng),
               std::invalid_argument);
}

/// Inference batching is bitwise-neutral: every layer is row-independent and
/// each GEMM output element accumulates over k in the same order whatever
/// the tile's row count.
TEST(Trainer, ComputeLogitsBatchingInvariant) {
  Rng rng(19);
  nn::Classifier model = nn::make_classifier("resmlp11", 8, 5, rng);
  Tensor x = Tensor::randn({70, 8}, rng);
  const Tensor small = compute_logits(model, x, 7);
  const Tensor large = compute_logits(model, x, 64);
  EXPECT_EQ(tensor::max_abs_difference(small, large), 0.0f);
}

TEST(Trainer, ComputeFeaturesShape) {
  Rng rng(20);
  nn::Classifier model = nn::make_classifier("resmlp11", 8, 5, rng);
  const Tensor f = compute_features(model, Tensor::randn({10, 8}, rng));
  EXPECT_EQ(f.rows(), 10u);
  EXPECT_EQ(f.cols(), nn::kFeatureDim);
}

// ----------------------------------------------------------------- Metrics ---

TEST(Metrics, HistoryQueries) {
  RunHistory history;
  history.algorithm = "test";
  for (std::size_t t = 0; t < 4; ++t) {
    RoundMetrics m;
    m.round = t;
    m.server_accuracy = 0.2f * static_cast<float>(t + 1);
    m.mean_client_accuracy = 0.1f * static_cast<float>(t + 1);
    m.cumulative_bytes = 100 * (t + 1);
    history.rounds.push_back(m);
  }
  EXPECT_FLOAT_EQ(history.best_server_accuracy(), 0.8f);
  EXPECT_FLOAT_EQ(history.best_client_accuracy(), 0.4f);
  EXPECT_EQ(history.bytes_to_server_accuracy(0.55f), 300u);
  EXPECT_EQ(history.rounds_to_server_accuracy(0.55f), 2u);
  EXPECT_EQ(history.bytes_to_client_accuracy(0.35f), 400u);
  EXPECT_FALSE(history.bytes_to_server_accuracy(0.95f).has_value());
  EXPECT_EQ(history.final_round().round, 3u);
}

TEST(Metrics, EmptyHistoryFinalThrows) {
  RunHistory history;
  EXPECT_THROW(history.final_round(), std::logic_error);
  EXPECT_FLOAT_EQ(history.best_server_accuracy(), 0.0f);
}

// -------------------------------------------------------------- Federation ---

TEST(Federation, BuildValidatesConfig) {
  const auto bundle = small_bundle();
  FederationConfig config;
  config.num_clients = 0;
  EXPECT_THROW(build_federation(bundle, PartitionSpec::iid(), config),
               std::invalid_argument);
  config.num_clients = 2;
  config.client_archs = {};
  EXPECT_THROW(build_federation(bundle, PartitionSpec::iid(), config),
               std::invalid_argument);
}

TEST(Federation, ClientsGetDisjointDataAndMatchingTests) {
  auto fed = small_federation(PartitionSpec::dirichlet(0.3), 4);
  ASSERT_EQ(fed->num_clients(), 4u);
  std::size_t total = 0;
  for (std::size_t c = 0; c < fed->num_clients(); ++c) {
    const Client& client = fed->client(c);
    EXPECT_FALSE(client.train_data.empty());
    EXPECT_FALSE(client.test_data.empty());
    total += client.train_data.size();
    // Local test only contains classes the client trains on.
    const auto train_hist = client.train_data.class_histogram();
    for (int cls : client.test_data.present_classes()) {
      EXPECT_GT(train_hist[static_cast<std::size_t>(cls)], 0u)
          << "client " << client.id << " test class " << cls;
    }
  }
  EXPECT_EQ(total, 600u);
}

TEST(Federation, HeterogeneousArchsCycle) {
  auto fed = small_federation(PartitionSpec::iid(), 5,
                              {"resmlp11", "resmlp20", "resmlp29"});
  EXPECT_EQ(fed->client(0).model.arch(), "resmlp11");
  EXPECT_EQ(fed->client(1).model.arch(), "resmlp20");
  EXPECT_EQ(fed->client(2).model.arch(), "resmlp29");
  EXPECT_EQ(fed->client(3).model.arch(), "resmlp11");
}

TEST(Federation, SeedsAreReproducible) {
  auto a = small_federation();
  auto b = small_federation();
  EXPECT_EQ(tensor::max_abs_difference(a->client(0).model.flat_weights(),
                                       b->client(0).model.flat_weights()),
            0.0f);
  EXPECT_EQ(a->client(1).train_data.labels, b->client(1).train_data.labels);
}

TEST(Federation, PartitionSpecLabels) {
  EXPECT_EQ(PartitionSpec::iid().label(), "iid");
  EXPECT_EQ(PartitionSpec::dirichlet(0.5).label(), "dir(0.5)");
  EXPECT_EQ(PartitionSpec::shards(3, 8).label(), "shards(k=3)");
  EXPECT_EQ(PartitionSpec::class_split().label(), "class-split");
}

// -------------------------------------------------------------- Algorithms ---

TEST(FedAvgTest, RequiresHomogeneousModels) {
  auto fed = small_federation(PartitionSpec::iid(), 3,
                              {"resmlp11", "resmlp20"});
  EXPECT_THROW(FedAvg(*fed, {.local_epochs = 1, .proximal_mu = {}}),
               std::invalid_argument);
}

TEST(FedAvgTest, RoundSynchronizesNothingButAggregates) {
  auto fed = small_federation();
  FedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
  algo.run_round(*fed, 0);
  // After a round the global model is the weighted average of the client
  // models (clients hold their locally-trained weights at this point).
  Tensor expected({algo.server_model()->parameter_count()});
  std::size_t total = 0;
  for (std::size_t c = 0; c < fed->num_clients(); ++c) {
    Client& client = fed->client(c);
    tensor::axpy_inplace(expected,
                         static_cast<float>(client.train_data.size()),
                         client.model.flat_weights());
    total += client.train_data.size();
  }
  tensor::scale_inplace(expected, 1.0f / static_cast<float>(total));
  EXPECT_LT(tensor::max_abs_difference(algo.server_model()->flat_weights(),
                                       expected),
            1e-5f);
}

TEST(FedAvgTest, TrafficIsWeightsOnly) {
  auto fed = small_federation();
  FedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
  fed->meter.begin_round(0);
  algo.run_round(*fed, 0);
  EXPECT_GT(fed->meter.total_for_kind(comm::PayloadKind::kWeights), 0u);
  EXPECT_EQ(fed->meter.total_for_kind(comm::PayloadKind::kLogits), 0u);
  EXPECT_EQ(fed->meter.total_for_kind(comm::PayloadKind::kPrototypes), 0u);
  // 3 clients x (1 down + 1 up) weight transfers.
  EXPECT_EQ(fed->meter.records().size(), 6u);
}

TEST(FedProxTest, NameAndConstruction) {
  auto fed = small_federation();
  FedProx algo(*fed, {.local_epochs = 1, .mu = 0.1f});
  EXPECT_EQ(algo.name(), "FedProx");
  EXPECT_NE(algo.server_model(), nullptr);
}

TEST(FedMdTest, NoServerModelAndLogitsTraffic) {
  auto fed = small_federation(PartitionSpec::iid(), 3,
                              {"resmlp11", "resmlp20", "resmlp29"});
  FedMd algo({.local_epochs = 1, .digest_epochs = 1,
              .distill_temperature = 1.0f});
  EXPECT_EQ(algo.server_model(), nullptr);
  fed->meter.begin_round(0);
  algo.run_round(*fed, 0);
  EXPECT_EQ(fed->meter.total_for_kind(comm::PayloadKind::kWeights), 0u);
  EXPECT_GT(fed->meter.total_for_kind(comm::PayloadKind::kLogits), 0u);
}

TEST(DsFlTest, SharpeningValidation) {
  EXPECT_THROW(DsFl({.local_epochs = 1, .digest_epochs = 1,
                     .sharpen_temperature = 0.0f}),
               std::invalid_argument);
}

TEST(DsFlTest, RunsHeterogeneous) {
  auto fed = small_federation(PartitionSpec::dirichlet(0.3), 3,
                              {"resmlp11", "resmlp20", "resmlp29"});
  DsFl algo({.local_epochs = 1, .digest_epochs = 1,
             .sharpen_temperature = 0.5f});
  EXPECT_NO_THROW(algo.run_round(*fed, 0));
}

TEST(FedDfTest, RequiresHomogeneousAndKeepsServerArch) {
  auto hetero = small_federation(PartitionSpec::iid(), 2,
                                 {"resmlp11", "resmlp20"});
  EXPECT_THROW(FedDf(*hetero, {}), std::invalid_argument);
  auto fed = small_federation();
  FedDf algo(*fed, {.local_epochs = 1, .server_epochs = 1,
                    .distill_batch = 32, .distill_temperature = 1.0f});
  EXPECT_EQ(algo.server_model()->arch(), "resmlp11");
  EXPECT_NO_THROW(algo.run_round(*fed, 0));
}

TEST(FedEtTest, LargerServerModel) {
  auto fed = small_federation(PartitionSpec::iid(), 3,
                              {"resmlp11", "resmlp20", "resmlp29"});
  FedEt algo(*fed, {.local_epochs = 1, .server_epochs = 1,
                    .client_digest_epochs = 1, .server_arch = "resmlp56",
                    .distill_batch = 32});
  EXPECT_EQ(algo.server_model()->arch(), "resmlp56");
  EXPECT_GT(algo.server_model()->parameter_count(),
            fed->client(2).model.parameter_count());
  fed->meter.begin_round(0);
  EXPECT_NO_THROW(algo.run_round(*fed, 0));
  EXPECT_GT(fed->meter.total_for_kind(comm::PayloadKind::kLogits), 0u);
}

TEST(RunFederation, ProducesHistoryAndLogs) {
  auto fed = small_federation();
  FedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
  std::ostringstream log;
  RunOptions opts;
  opts.rounds = 2;
  opts.log = &log;
  const RunHistory history = run_federation(algo, *fed, opts);
  EXPECT_EQ(history.rounds.size(), 2u);
  EXPECT_EQ(history.algorithm, "FedAvg");
  EXPECT_TRUE(history.rounds[0].server_accuracy.has_value());
  EXPECT_EQ(history.rounds[0].client_accuracy.size(), 3u);
  EXPECT_GT(history.rounds[1].cumulative_bytes,
            history.rounds[0].cumulative_bytes);
  EXPECT_NE(log.str().find("FedAvg round 0"), std::string::npos);
}

/// One-epoch configuration of every pipeline algorithm, for the unified drop
/// semantics tests: the same degradation rules must hold for all eight.
std::unique_ptr<Algorithm> any_algorithm(const std::string& name,
                                         Federation& fed) {
  if (name == "FedAvg") {
    return std::make_unique<FedAvg>(
        fed, FedAvg::Options{.local_epochs = 1, .proximal_mu = {}});
  }
  if (name == "FedProx") {
    return std::make_unique<FedProx>(
        fed, FedProx::Options{.local_epochs = 1, .mu = 0.01f});
  }
  if (name == "FedMD") {
    return std::make_unique<FedMd>(FedMd::Options{.local_epochs = 1,
                                                  .digest_epochs = 1,
                                                  .distill_temperature = 1.0f});
  }
  if (name == "DS-FL") {
    return std::make_unique<DsFl>(DsFl::Options{.local_epochs = 1,
                                                .digest_epochs = 1,
                                                .sharpen_temperature = 0.5f});
  }
  if (name == "FedDF") {
    return std::make_unique<FedDf>(fed,
                                   FedDf::Options{.local_epochs = 1,
                                                  .server_epochs = 1,
                                                  .distill_batch = 32,
                                                  .distill_temperature = 1.0f});
  }
  if (name == "FedET") {
    FedEt::Options o;
    o.local_epochs = 1;
    o.server_epochs = 1;
    o.client_digest_epochs = 1;
    o.server_arch = "resmlp11";
    return std::make_unique<FedEt>(fed, o);
  }
  if (name == "FedProto") {
    return std::make_unique<core::FedProto>(
        core::FedProto::Options{.local_epochs = 1, .prototype_weight = 0.5f});
  }
  if (name == "FedPKD") {
    core::FedPkd::Options o;
    o.local_epochs = 1;
    o.public_epochs = 1;
    o.server_epochs = 1;
    o.server_arch = "resmlp11";
    return std::make_unique<core::FedPkd>(fed, o);
  }
  throw std::logic_error("unknown algorithm: " + name);
}

const std::vector<std::string> kDropAlgorithms = {
    "FedAvg", "FedProx", "FedMD", "DS-FL",
    "FedDF",  "FedET",   "FedProto", "FedPKD"};

TEST(RunFederation, DroppedMessagesDontCrashAnyAlgorithm) {
  for (const std::string& name : kDropAlgorithms) {
    auto fed = small_federation();
    fed->channel.set_drop_probability(0.5, Rng(99));
    auto algo = any_algorithm(name, *fed);
    RunOptions opts;
    opts.rounds = 2;
    EXPECT_NO_THROW(run_federation(*algo, *fed, opts)) << name;
  }
}

TEST(RunFederation, TotalDropBlackoutKeepsModelsFinite) {
  for (const std::string& name : kDropAlgorithms) {
    auto fed = small_federation();
    fed->channel.set_drop_probability(1.0, Rng(100));
    auto algo = any_algorithm(name, *fed);
    RunOptions opts;
    opts.rounds = 1;
    const RunHistory history = run_federation(*algo, *fed, opts);
    EXPECT_EQ(history.final_round().cumulative_bytes, 0u) << name;
    for (std::size_t c = 0; c < fed->num_clients(); ++c) {
    Client& client = fed->client(c);
      EXPECT_FALSE(tensor::has_non_finite(client.model.flat_weights()))
          << name << " client " << client.id;
    }
    if (nn::Classifier* server = algo->server_model()) {
      EXPECT_FALSE(tensor::has_non_finite(server->flat_weights())) << name;
    }
  }
}

}  // namespace
}  // namespace fedpkd::fl
