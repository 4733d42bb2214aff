// Tests for the extension modules: checkpointing / CSV export, filter
// strategy variants, and confidence-weighted ensemble distillation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/core/fedproto.hpp"
#include "fedpkd/core/filter_ext.hpp"
#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/timing.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd {
namespace {

using tensor::Rng;
using tensor::Tensor;

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / ("fedpkd_test_" + name);
}

struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

// -------------------------------------------------------------- Checkpoint ---

TEST(Checkpoint, SaveLoadRoundTrip) {
  Rng rng(1);
  nn::Classifier model = nn::make_classifier("resmlp20", 16, 7, rng);
  TempFile file("ckpt_roundtrip.bin");
  fl::save_checkpoint(model, file.path);

  nn::Classifier loaded = fl::load_checkpoint(file.path);
  EXPECT_EQ(loaded.arch(), "resmlp20");
  EXPECT_EQ(loaded.input_dim(), 16u);
  EXPECT_EQ(loaded.num_classes(), 7u);
  EXPECT_EQ(tensor::max_abs_difference(loaded.flat_weights(),
                                       model.flat_weights()),
            0.0f);
}

TEST(Checkpoint, LoadedModelPredictsIdentically) {
  Rng rng(2);
  nn::Classifier model = nn::make_classifier("resmlp11", 8, 3, rng);
  TempFile file("ckpt_predict.bin");
  fl::save_checkpoint(model, file.path);
  nn::Classifier loaded = fl::load_checkpoint(file.path);
  Tensor x = Tensor::randn({5, 8}, rng);
  EXPECT_EQ(tensor::max_abs_difference(model.forward(x, false),
                                       loaded.forward(x, false)),
            0.0f);
}

TEST(Checkpoint, LoadRejectsMissingFile) {
  EXPECT_THROW(fl::load_checkpoint(temp_path("does_not_exist.bin")),
               std::runtime_error);
}

TEST(Checkpoint, LoadRejectsCorruptedFile) {
  Rng rng(3);
  nn::Classifier model = nn::make_classifier("resmlp11", 8, 3, rng);
  TempFile file("ckpt_corrupt.bin");
  fl::save_checkpoint(model, file.path);
  // Flip the magic.
  std::fstream f(file.path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(0);
  f.put('X');
  f.close();
  EXPECT_THROW(fl::load_checkpoint(file.path), std::runtime_error);
}

TEST(Checkpoint, LoadRejectsTruncatedFile) {
  Rng rng(4);
  nn::Classifier model = nn::make_classifier("resmlp11", 8, 3, rng);
  TempFile file("ckpt_trunc.bin");
  fl::save_checkpoint(model, file.path);
  std::filesystem::resize_file(file.path,
                               std::filesystem::file_size(file.path) / 2);
  EXPECT_THROW(fl::load_checkpoint(file.path), std::runtime_error);
}

TEST(Checkpoint, HistoryCsvRoundTrip) {
  fl::RunHistory history;
  history.algorithm = "FedPKD";
  for (std::size_t t = 0; t < 3; ++t) {
    fl::RoundMetrics m;
    m.round = t;
    if (t != 1) m.server_accuracy = 0.5f + 0.1f * static_cast<float>(t);
    m.mean_client_accuracy = 0.4f + 0.05f * static_cast<float>(t);
    m.cumulative_bytes = 1000 * (t + 1);
    history.rounds.push_back(m);
  }
  TempFile file("history.csv");
  fl::export_history_csv(history, file.path);
  const fl::RunHistory back = fl::import_history_csv(file.path, "FedPKD");
  ASSERT_EQ(back.rounds.size(), 3u);
  EXPECT_EQ(back.algorithm, "FedPKD");
  EXPECT_TRUE(back.rounds[0].server_accuracy.has_value());
  EXPECT_FALSE(back.rounds[1].server_accuracy.has_value());
  EXPECT_FLOAT_EQ(*back.rounds[2].server_accuracy, 0.7f);
  EXPECT_EQ(back.rounds[2].cumulative_bytes, 3000u);
}

TEST(Checkpoint, ImportRejectsBadHeader) {
  TempFile file("bad_header.csv");
  std::ofstream(file.path) << "wrong,header\n1,2\n";
  EXPECT_THROW(fl::import_history_csv(file.path, "x"), std::runtime_error);

  // The four- and six-column headers of earlier exports are refused too,
  // even over rows that would be valid under them.
  TempFile four("legacy4_header.csv");
  std::ofstream(four.path)
      << "round,server_accuracy,mean_client_accuracy,cumulative_bytes\n"
      << "0,0.5,0.4,1000\n";
  EXPECT_THROW(fl::import_history_csv(four.path, "x"), std::runtime_error);

  TempFile six("legacy6_header.csv");
  std::ofstream(six.path)
      << "round,server_accuracy,mean_client_accuracy,cumulative_bytes,"
         "anomaly_excluded,anomaly\n"
      << "0,0.5,0.4,1000,0,\n";
  EXPECT_THROW(fl::import_history_csv(six.path, "x"), std::runtime_error);
}

TEST(Checkpoint, LoadRejectsWrongVersion) {
  Rng rng(5);
  nn::Classifier model = nn::make_classifier("resmlp11", 8, 3, rng);
  TempFile file("ckpt_version.bin");
  fl::save_checkpoint(model, file.path);
  // The u32 version field sits right after the u32 magic.
  std::fstream f(file.path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  f.put(static_cast<char>(0x63));
  f.close();
  EXPECT_THROW(fl::load_checkpoint(file.path), std::runtime_error);
}

TEST(Checkpoint, LoadRejectsUnknownArchitecture) {
  Rng rng(6);
  nn::Classifier model = nn::make_classifier("resmlp11", 8, 3, rng);
  TempFile file("ckpt_arch.bin");
  fl::save_checkpoint(model, file.path);
  // Patch the arch string's first character (follows magic+version+length,
  // 12 bytes in) and RE-SEAL: a plain byte patch would be rejected by the
  // CRC32 footer before the model-zoo lookup ever ran.
  auto bytes = fl::durable::read_file_bytes(file.path);
  bytes.resize(bytes.size() - fl::durable::kFooterSize);
  bytes[12] = std::byte{'x'};  // "xesmlp11" is not in the model zoo
  fl::durable::append_footer(bytes);
  std::ofstream(file.path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  EXPECT_THROW(fl::load_checkpoint(file.path), std::invalid_argument);
}

/// export_history_csv's header, and the six cells that end a row with no
/// anomaly records and no engine stats; each case below breaks one cell.
const char* kCsvHeader =
    "round,server_accuracy,mean_client_accuracy,cumulative_bytes,"
    "anomaly_excluded,anomaly,sim_ms,flushes,agg_uploads,stale_max\n";
const char* kCsvTail = ",0,,,,,\n";

TEST(Checkpoint, ImportRejectsNonFiniteAccuracyCells) {
  // A NaN accuracy cell would silently poison every best-accuracy and
  // bytes-to-target query downstream; the importer must refuse it.
  TempFile nan_cell("hist_nan.csv");
  std::ofstream(nan_cell.path) << kCsvHeader << "0,nan,0.4,1000" << kCsvTail;
  EXPECT_THROW(fl::import_history_csv(nan_cell.path, "x"), std::runtime_error);

  TempFile inf_cell("hist_inf.csv");
  std::ofstream(inf_cell.path) << kCsvHeader << "0,0.5,inf,1000" << kCsvTail;
  EXPECT_THROW(fl::import_history_csv(inf_cell.path, "x"), std::runtime_error);
}

TEST(Checkpoint, ImportRejectsJunkAndPartialNumericCells) {
  TempFile junk_round("hist_junk_round.csv");
  std::ofstream(junk_round.path)
      << kCsvHeader << "abc,0.5,0.4,1000" << kCsvTail;
  EXPECT_THROW(fl::import_history_csv(junk_round.path, "x"),
               std::runtime_error);

  TempFile junk_acc("hist_junk_acc.csv");
  std::ofstream(junk_acc.path) << kCsvHeader << "0,0.5,zero,1000" << kCsvTail;
  EXPECT_THROW(fl::import_history_csv(junk_acc.path, "x"), std::runtime_error);

  // Partially-numeric cells ("12abc") must not be accepted as 12.
  TempFile partial("hist_partial.csv");
  std::ofstream(partial.path) << kCsvHeader << "0,0.5,0.4,12abc" << kCsvTail;
  EXPECT_THROW(fl::import_history_csv(partial.path, "x"), std::runtime_error);

  TempFile partial_acc("hist_partial_acc.csv");
  std::ofstream(partial_acc.path)
      << kCsvHeader << "0,0.5e,0.4,1000" << kCsvTail;
  EXPECT_THROW(fl::import_history_csv(partial_acc.path, "x"),
               std::runtime_error);
}

TEST(Checkpoint, ImportRejectsShortRows) {
  TempFile file("hist_short.csv");
  std::ofstream(file.path) << kCsvHeader << "0,0.5\n";
  EXPECT_THROW(fl::import_history_csv(file.path, "x"), std::runtime_error);
}

TEST(Checkpoint, ImportAcceptsEmptyServerAccuracyOnly) {
  // The one legitimately empty cell is server accuracy (server-less
  // algorithms); an empty *client* accuracy is malformed.
  TempFile ok("hist_empty_server.csv");
  std::ofstream(ok.path) << kCsvHeader << "0,,0.4,1000" << kCsvTail;
  const fl::RunHistory back = fl::import_history_csv(ok.path, "x");
  ASSERT_EQ(back.rounds.size(), 1u);
  EXPECT_FALSE(back.rounds[0].server_accuracy.has_value());

  TempFile bad("hist_empty_client.csv");
  std::ofstream(bad.path) << kCsvHeader << "0,0.5,,1000" << kCsvTail;
  EXPECT_THROW(fl::import_history_csv(bad.path, "x"), std::runtime_error);
}

// ------------------------------------------------------------- FilterExt ---

struct ExtFixture {
  Rng rng{6};
  nn::Classifier model = nn::make_classifier("resmlp11", 8, 3, rng);
  Tensor inputs = Tensor::randn({30, 8}, rng);
  Tensor probs;  // aggregated teacher distributions
  core::PrototypeSet protos{3, nn::kFeatureDim};

  ExtFixture() {
    // Class i%3, confidence increasing with index within the class bucket.
    Tensor logits = Tensor::zeros({30, 3});
    for (std::size_t i = 0; i < 30; ++i) {
      logits.at(i, i % 3) = 0.5f + 0.2f * static_cast<float>(i / 3);
    }
    probs = tensor::softmax_rows(logits);
    for (std::size_t c = 0; c < 3; ++c) {
      protos.present[c] = true;
      protos.support[c] = 10;
    }
    protos.matrix = Tensor::randn({3, nn::kFeatureDim}, rng);
  }
};

TEST(FilterExt, PrototypeStrategyMatchesBaseFilter) {
  ExtFixture f;
  const auto base = core::filter_public_data(f.model, f.inputs, f.probs,
                                             f.protos, 0.5f);
  const auto ext = core::filter_public_data_ext(
      f.model, f.inputs, f.probs, f.protos, 0.5f,
      core::FilterStrategy::kPrototypeDistance);
  EXPECT_EQ(base.selected, ext.selected);
  EXPECT_EQ(base.pseudo_labels, ext.pseudo_labels);
}

TEST(FilterExt, EntropyKeepsMostConfidentRows) {
  ExtFixture f;
  const auto r = core::filter_public_data_ext(
      f.model, f.inputs, f.probs, f.protos, 0.5f,
      core::FilterStrategy::kEntropy);
  // Within each class, the most confident rows are the later ones.
  for (std::size_t cls = 0; cls < 3; ++cls) {
    std::vector<std::size_t> kept;
    for (std::size_t i : r.selected) {
      if (static_cast<std::size_t>(r.pseudo_labels[i]) == cls) {
        kept.push_back(i);
      }
    }
    ASSERT_EQ(kept.size(), 5u);  // ceil(0.5 * 10)
    for (std::size_t i : kept) EXPECT_GE(i / 3, 5u) << "kept low-conf row";
  }
}

TEST(FilterExt, MarginKeepsCeilCountPerClass) {
  ExtFixture f;
  for (float theta : {0.3f, 0.7f, 1.0f}) {
    const auto r = core::filter_public_data_ext(
        f.model, f.inputs, f.probs, f.protos, theta,
        core::FilterStrategy::kMargin);
    EXPECT_EQ(r.selected.size(),
              3 * static_cast<std::size_t>(
                      std::ceil(static_cast<double>(theta) * 10.0 - 1e-6)));
  }
}

TEST(FilterExt, HybridIsIntersectionBiased) {
  ExtFixture f;
  const auto hybrid = core::filter_public_data_ext(
      f.model, f.inputs, f.probs, f.protos, 0.5f,
      core::FilterStrategy::kHybrid);
  EXPECT_EQ(hybrid.selected.size(), 15u);
  EXPECT_TRUE(std::is_sorted(hybrid.selected.begin(), hybrid.selected.end()));
}

TEST(FilterExt, Validation) {
  ExtFixture f;
  EXPECT_THROW(core::filter_public_data_ext(f.model, f.inputs, f.probs,
                                            f.protos, 0.0f,
                                            core::FilterStrategy::kEntropy),
               std::invalid_argument);
  Tensor bad = Tensor::zeros({5, 3});
  EXPECT_THROW(core::filter_public_data_ext(f.model, f.inputs, bad, f.protos,
                                            0.5f,
                                            core::FilterStrategy::kMargin),
               std::invalid_argument);
}

TEST(FilterExt, StrategyNames) {
  EXPECT_STREQ(core::to_string(core::FilterStrategy::kPrototypeDistance),
               "prototype-distance");
  EXPECT_STREQ(core::to_string(core::FilterStrategy::kEntropy), "entropy");
  EXPECT_STREQ(core::to_string(core::FilterStrategy::kMargin), "margin");
  EXPECT_STREQ(core::to_string(core::FilterStrategy::kHybrid), "hybrid");
}

// ------------------------------------------- Confidence-weighted distill ---

TEST(WeightedDistill, RunsAndLearns) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(7));
  Rng rng(8);
  const data::Dataset pub = task.sample(200, rng);
  Rng m(9);
  nn::Classifier server = nn::make_classifier("resmlp11", pub.dim(), 10, m);
  const Tensor teacher = Tensor::one_hot(pub.labels, 10);
  core::PrototypeSet protos(10, nn::kFeatureDim);
  core::ServerDistillOptions opts;
  opts.epochs = 10;
  opts.delta = 1.0f;
  opts.use_prototype_loss = false;
  opts.confidence_weighted = true;
  Rng t(10);
  core::server_ensemble_distill(server, pub.features, teacher, pub.labels,
                                protos, opts, t);
  EXPECT_GT(nn::accuracy(fl::compute_logits(server, pub.features), pub.labels),
            0.6f);
}

TEST(WeightedDistill, UniformTeacherEqualsUnweighted) {
  // With a uniform-confidence teacher the weights are all 1, so weighted and
  // unweighted training trajectories coincide exactly.
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(11));
  Rng rng(12);
  const data::Dataset pub = task.sample(100, rng);
  const Tensor teacher = Tensor::one_hot(pub.labels, 10);  // equal entropy

  auto train = [&](bool weighted) {
    Rng m(13);
    nn::Classifier server = nn::make_classifier("resmlp11", pub.dim(), 10, m);
    core::PrototypeSet protos(10, nn::kFeatureDim);
    core::ServerDistillOptions opts;
    opts.epochs = 2;
    opts.delta = 1.0f;
    opts.use_prototype_loss = false;
    opts.confidence_weighted = weighted;
    Rng t(14);
    core::server_ensemble_distill(server, pub.features, teacher, pub.labels,
                                  protos, opts, t);
    return server.flat_weights();
  };
  EXPECT_LT(tensor::max_abs_difference(train(false), train(true)), 1e-5f);
}

// --------------------------------------------------- FedPkd with extensions ---

TEST(FedPkdExtensions, AllStrategiesRunEndToEnd) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(15));
  const auto bundle = task.make_bundle(400, 300, 120);
  for (core::FilterStrategy strategy :
       {core::FilterStrategy::kPrototypeDistance,
        core::FilterStrategy::kEntropy, core::FilterStrategy::kMargin,
        core::FilterStrategy::kHybrid}) {
    fl::FederationConfig config;
    config.num_clients = 3;
    config.client_archs = {"resmlp11"};
    config.local_test_per_client = 40;
    config.seed = 16;
    auto fed = fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3),
                                    config);
    core::FedPkd::Options o;
    o.local_epochs = 1;
    o.public_epochs = 1;
    o.server_epochs = 1;
    o.server_arch = "resmlp20";
    o.filter_strategy = strategy;
    o.confidence_weighted_distill = true;
    core::FedPkd algo(*fed, o);
    EXPECT_NO_THROW(algo.run_round(*fed, 0)) << core::to_string(strategy);
    EXPECT_LT(algo.last_filter_keep_fraction(), 1.0f)
        << core::to_string(strategy);
  }
}

// ----------------------------------------------------------------- FedProto ---

std::unique_ptr<fl::Federation> proto_federation(double participation = 1.0) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(21));
  static const data::FederatedDataBundle bundle =
      task.make_bundle(800, 500, 150);
  fl::FederationConfig config;
  config.num_clients = 4;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 60;
  config.seed = 22;
  auto fed = fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3),
                                  config);
  fed->participation_fraction = participation;
  return fed;
}

TEST(FedProtoAlgo, PrototypesOnlyTraffic) {
  auto fed = proto_federation();
  core::FedProto algo({.local_epochs = 1, .prototype_weight = 0.5f});
  EXPECT_EQ(algo.server_model(), nullptr);
  fed->begin_round(0);
  algo.run_round(*fed, 0);
  EXPECT_GT(fed->meter.total_for_kind(comm::PayloadKind::kPrototypes), 0u);
  EXPECT_EQ(fed->meter.total_for_kind(comm::PayloadKind::kLogits), 0u);
  EXPECT_EQ(fed->meter.total_for_kind(comm::PayloadKind::kWeights), 0u);
  ASSERT_TRUE(algo.global_prototypes().has_value());
  EXPECT_GT(algo.global_prototypes()->present_count(), 0u);
}

TEST(FedProtoAlgo, LearnsPersonalizedModels) {
  auto fed = proto_federation();
  core::FedProto algo({.local_epochs = 2, .prototype_weight = 0.5f});
  fl::RunOptions opts;
  opts.rounds = 3;
  const auto history = fl::run_federation(algo, *fed, opts);
  EXPECT_GT(history.best_client_accuracy(), 0.3f);
}

TEST(FedProtoAlgo, LightestTrafficOfAllBaselines) {
  auto fed_proto = proto_federation();
  core::FedProto proto({.local_epochs = 1, .prototype_weight = 0.5f});
  fed_proto->begin_round(0);
  proto.run_round(*fed_proto, 0);

  auto fed_avg = proto_federation();
  fl::FedAvg avg(*fed_avg, {.local_epochs = 1, .proximal_mu = {}});
  fed_avg->begin_round(0);
  avg.run_round(*fed_avg, 0);

  EXPECT_LT(fed_proto->meter.total(), fed_avg->meter.total() / 10);
}

// ------------------------------------------------------------ Participation ---

TEST(Participation, DefaultIsEveryone) {
  auto fed = proto_federation();
  fed->begin_round(0);
  EXPECT_EQ(fed->active_client_ids().size(), fed->num_clients());
}

TEST(Participation, FractionSamplesSubset) {
  auto fed = proto_federation(0.5);
  fed->begin_round(0);
  EXPECT_EQ(fed->active_client_ids().size(), 2u);
  // Resampling across rounds eventually changes the subset.
  std::set<std::vector<comm::NodeId>> seen;
  for (std::size_t t = 0; t < 16; ++t) {
    fed->begin_round(t);
    std::vector<comm::NodeId> ids;
    for (std::size_t id : fed->active_client_ids()) {
      ids.push_back(static_cast<comm::NodeId>(id));
    }
    seen.insert(ids);
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(Participation, AtLeastOneClient) {
  auto fed = proto_federation(0.01);
  fed->begin_round(0);
  EXPECT_EQ(fed->active_client_ids().size(), 1u);
}

TEST(Participation, InvalidFractionThrows) {
  auto fed = proto_federation();
  fed->participation_fraction = -0.5;
  EXPECT_THROW(fed->begin_round(0), std::invalid_argument);
}

TEST(Participation, PartialParticipationReducesTraffic) {
  auto run_bytes = [&](double fraction) {
    auto fed = proto_federation(fraction);
    fl::FedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
    fl::RunOptions opts;
    opts.rounds = 2;
    return fl::run_federation(algo, *fed, opts).final_round().cumulative_bytes;
  };
  EXPECT_LT(run_bytes(0.5), run_bytes(1.0));
}

TEST(Participation, FedPkdStillLearnsWithHalfParticipation) {
  auto fed = proto_federation(0.5);
  core::FedPkd::Options o;
  o.local_epochs = 2;
  o.public_epochs = 1;
  o.server_epochs = 3;
  o.server_arch = "resmlp20";
  core::FedPkd algo(*fed, o);
  fl::RunOptions opts;
  opts.rounds = 3;
  const auto history = fl::run_federation(algo, *fed, opts);
  EXPECT_GT(history.best_server_accuracy(), 0.3f);
}

// ----------------------------------------------------------------- Timing ---

TEST(Timing, FlopEstimatesScaleWithModelAndData) {
  Rng rng(60);
  nn::Classifier small = nn::make_classifier("resmlp11", 16, 4, rng);
  nn::Classifier large = nn::make_classifier("resmlp56", 16, 4, rng);
  EXPECT_EQ(fl::inference_flops(small, 10),
            2 * small.parameter_count() * 10);
  EXPECT_GT(fl::inference_flops(large, 10), fl::inference_flops(small, 10));
  EXPECT_EQ(fl::training_flops(small, 10, 3),
            3 * fl::inference_flops(small, 10) * 3);
}

TEST(Timing, RoundTimeAccountsComputeAndTraffic) {
  comm::Meter meter;
  meter.begin_round(0);
  // Client 0 uploads 1 MiB, client 1 nothing.
  meter.record({0, 0, comm::kServerId, comm::PayloadKind::kLogits,
                1024 * 1024});
  std::vector<fl::DeviceProfile> profiles(2);
  profiles[0].uplink_bytes_per_second = 1024 * 1024;  // 1 s for the upload
  profiles[0].latency_seconds = 0.5;
  profiles[0].flops_per_second = 1e9;
  profiles[1].flops_per_second = 1e9;
  profiles[1].latency_seconds = 0.0;
  const std::vector<std::size_t> flops{std::size_t{2'000'000'000},  // 2 s
                                       std::size_t{1'000'000'000}}; // 1 s
  const auto report = fl::estimate_round_time(meter, 0, profiles, flops);
  EXPECT_NEAR(report.per_client[0].compute_seconds, 2.0, 1e-9);
  EXPECT_NEAR(report.per_client[0].uplink_seconds, 1.0, 1e-9);
  EXPECT_NEAR(report.per_client[0].latency_seconds, 0.5, 1e-9);
  EXPECT_NEAR(report.per_client[1].total(), 1.0, 1e-9);
  EXPECT_NEAR(report.makespan_seconds, 3.5, 1e-9);
  EXPECT_GT(report.straggler_factor, 1.0);
}

TEST(Timing, IgnoresOtherRounds) {
  comm::Meter meter;
  meter.begin_round(0);
  meter.record({0, 0, comm::kServerId, comm::PayloadKind::kLogits, 999999});
  std::vector<fl::DeviceProfile> profiles(1);
  const std::vector<std::size_t> flops{0};
  const auto report = fl::estimate_round_time(meter, 5, profiles, flops);
  EXPECT_EQ(report.per_client[0].uplink_seconds, 0.0);
}

TEST(Timing, Validation) {
  comm::Meter meter;
  std::vector<fl::DeviceProfile> profiles(2);
  const std::vector<std::size_t> flops{1};
  EXPECT_THROW(fl::estimate_round_time(meter, 0, profiles, flops),
               std::invalid_argument);
  profiles.resize(1);
  profiles[0].flops_per_second = 0.0;
  EXPECT_THROW(fl::estimate_round_time(meter, 0, profiles, flops),
               std::invalid_argument);
}

TEST(Timing, DevicePresetsAreOrdered) {
  const auto s = fl::DeviceProfile::sensor();
  const auto g = fl::DeviceProfile::gateway();
  const auto e = fl::DeviceProfile::edge_box();
  EXPECT_LT(s.flops_per_second, g.flops_per_second);
  EXPECT_LT(g.flops_per_second, e.flops_per_second);
  EXPECT_LT(s.uplink_bytes_per_second, e.uplink_bytes_per_second);
}

TEST(Participation, EvaluationStillCoversAllClients) {
  auto fed = proto_federation(0.5);
  fl::FedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
  fl::RunOptions opts;
  opts.rounds = 1;
  const auto history = fl::run_federation(algo, *fed, opts);
  EXPECT_EQ(history.final_round().client_accuracy.size(), 4u);
}

}  // namespace
}  // namespace fedpkd
