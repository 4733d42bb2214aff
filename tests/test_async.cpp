// Tests for the event-driven round engine end to end: semisync and async
// rounds staying bitwise identical at 1 and 4 threads under the seeded fault
// matrix plus adversarial clients, FedBuff buffer/staleness semantics
// (flushes at K, busy skips, staleness histogram), mid-buffer crash-resume
// restoring a checkpoint with a non-empty aggregation buffer and in-flight
// uploads bit for bit, and the quorum boundary (fraction exactly equal to
// the survivor fraction) in sync and semisync modes. EnginePin pins every
// algorithm in every round mode under faults and an attacker to digests
// recorded before the sync barrier joined the event engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/core/fedproto.hpp"
#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/dsfl.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/feddf.hpp"
#include "fedpkd/fl/fedet.hpp"
#include "fedpkd/fl/fedmd.hpp"
#include "fedpkd/fl/fedprox.hpp"
#include "fedpkd/fl/round_pipeline.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd {
namespace {

std::uint32_t float_bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

const std::vector<std::string> kAllAlgorithms = {
    "FedAvg", "FedProx", "FedMD", "DS-FL",
    "FedDF",  "FedET",   "FedProto", "FedPKD"};

/// Same 4-client fixture as test_faults: small enough that the full
/// algorithm x mode x thread matrix stays cheap, big enough for stragglers
/// and a crash to leave a working majority.
std::unique_ptr<fl::Federation> small_federation(std::size_t threads) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(31));
  const auto bundle = task.make_bundle(120, 90, 60);
  fl::FederationConfig config;
  config.num_clients = 4;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 30;
  config.seed = 33;
  config.num_threads = threads;
  return fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3),
                              config);
}

std::unique_ptr<fl::Algorithm> make_algorithm(const std::string& name,
                                              fl::Federation& fed) {
  if (name == "FedAvg") {
    return std::make_unique<fl::FedAvg>(
        fed, fl::FedAvg::Options{.local_epochs = 1, .proximal_mu = {}});
  }
  if (name == "FedProx") {
    return std::make_unique<fl::FedProx>(
        fed, fl::FedProx::Options{.local_epochs = 1, .mu = 0.01f});
  }
  if (name == "FedMD") {
    return std::make_unique<fl::FedMd>(fl::FedMd::Options{
        .local_epochs = 1, .digest_epochs = 1, .distill_temperature = 1.0f});
  }
  if (name == "DS-FL") {
    return std::make_unique<fl::DsFl>(fl::DsFl::Options{
        .local_epochs = 1, .digest_epochs = 1, .sharpen_temperature = 0.5f});
  }
  if (name == "FedDF") {
    return std::make_unique<fl::FedDf>(
        fed, fl::FedDf::Options{.local_epochs = 1,
                                .server_epochs = 1,
                                .distill_batch = 32,
                                .distill_temperature = 1.0f});
  }
  if (name == "FedET") {
    fl::FedEt::Options o;
    o.local_epochs = 1;
    o.server_epochs = 1;
    o.client_digest_epochs = 1;
    o.server_arch = "resmlp11";
    return std::make_unique<fl::FedEt>(fed, o);
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

/// The fault matrix of the sync acceptance scenario, reused verbatim so the
/// event engine faces the same drops, corruption, stragglers, and scripted
/// crash the barrier rounds survive.
comm::FaultPlan matrix_plan() {
  comm::FaultPlan plan;
  plan.seed = 0xfa01701;
  plan.drop_probability = 0.2;
  plan.corrupt_probability = 0.05;
  plan.latency_ms = 1.0;
  plan.jitter_ms = 0.5;
  plan.max_retries = 3;
  plan.stragglers = {{1, 3.0}, {2, 5.0}};
  plan.crashes = {{5, comm::RoundStage::kUpload, 0}};
  return plan;
}

/// Two adversaries on top of the fault matrix: a sign-flipping node and a
/// label-flipping node, active from round 2.
robust::AttackPlan matrix_attacks() {
  robust::AttackPlan plan;
  robust::AdversarialClient sign;
  sign.type = robust::AttackType::kSignFlip;
  sign.node = 3;
  robust::AdversarialClient labels;
  labels.type = robust::AttackType::kLabelFlip;
  labels.node = 1;
  plan.adversaries = {sign, labels};
  plan.start_round = 2;
  return plan;
}

void apply_mode(fl::Federation& fed, fl::RoundMode mode) {
  fed.policy.mode = mode;
  if (mode == fl::RoundMode::kSemiSync) {
    // Tight enough that straggler uploads routinely miss the tick.
    fed.policy.upload_deadline_ms = 12.0;
  } else if (mode == fl::RoundMode::kAsync) {
    // Short wakes so straggler uploads span slices (busy skips, staleness).
    fed.policy.wake_interval_ms = 8.0;
    fed.policy.buffer_k = 2;
    fed.policy.staleness_beta = 0.5;
  }
}

void expect_same_faults(const fl::RoundFaultStats& a,
                        const fl::RoundFaultStats& b, const std::string& what) {
  EXPECT_EQ(a.send_attempts, b.send_attempts) << what;
  EXPECT_EQ(a.retries, b.retries) << what;
  EXPECT_EQ(a.frames_dropped, b.frames_dropped) << what;
  EXPECT_EQ(a.corrupt_frames, b.corrupt_frames) << what;
  EXPECT_EQ(a.bundles_lost, b.bundles_lost) << what;
  EXPECT_EQ(a.stragglers_excluded, b.stragglers_excluded) << what;
  EXPECT_EQ(a.rejected_contributions, b.rejected_contributions) << what;
  EXPECT_EQ(a.quorum_misses, b.quorum_misses) << what;
  EXPECT_EQ(a.clients_crashed, b.clients_crashed) << what;
  EXPECT_EQ(a.attacks_injected, b.attacks_injected) << what;
  EXPECT_DOUBLE_EQ(a.max_upload_latency_ms, b.max_upload_latency_ms) << what;
}

void expect_same_engine(const fl::RoundEngineStats& a,
                        const fl::RoundEngineStats& b, const std::string& what) {
  EXPECT_EQ(a.round_start_ms, b.round_start_ms) << what;
  EXPECT_EQ(a.round_end_ms, b.round_end_ms) << what;
  EXPECT_EQ(a.buffer_flushes, b.buffer_flushes) << what;
  EXPECT_EQ(a.aggregated_uploads, b.aggregated_uploads) << what;
  EXPECT_EQ(a.buffered_uploads, b.buffered_uploads) << what;
  EXPECT_EQ(a.inflight_uploads, b.inflight_uploads) << what;
  EXPECT_EQ(a.busy_skips, b.busy_skips) << what;
  EXPECT_EQ(a.max_staleness, b.max_staleness) << what;
  for (std::size_t i = 0; i < fl::kStalenessBuckets; ++i) {
    EXPECT_EQ(a.staleness_hist[i], b.staleness_hist[i])
        << what << " bucket " << i;
  }
}

void expect_same_rounds(const fl::RunHistory& a, const fl::RunHistory& b,
                        const std::string& label) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << label;
  for (std::size_t t = 0; t < a.rounds.size(); ++t) {
    const fl::RoundMetrics& x = a.rounds[t];
    const fl::RoundMetrics& y = b.rounds[t];
    const std::string what = label + " round " + std::to_string(t);
    ASSERT_EQ(x.server_accuracy.has_value(), y.server_accuracy.has_value())
        << what;
    if (x.server_accuracy) {
      EXPECT_TRUE(std::isfinite(*x.server_accuracy)) << what;
      EXPECT_EQ(float_bits(*x.server_accuracy), float_bits(*y.server_accuracy))
          << what;
    }
    ASSERT_EQ(x.client_accuracy.size(), y.client_accuracy.size()) << what;
    for (std::size_t c = 0; c < x.client_accuracy.size(); ++c) {
      EXPECT_TRUE(std::isfinite(x.client_accuracy[c])) << what;
      EXPECT_EQ(float_bits(x.client_accuracy[c]),
                float_bits(y.client_accuracy[c]))
          << what << " client " << c;
    }
    EXPECT_EQ(x.cumulative_bytes, y.cumulative_bytes) << what;
    ASSERT_EQ(x.fault_stats.has_value(), y.fault_stats.has_value()) << what;
    if (x.fault_stats) expect_same_faults(*x.fault_stats, *y.fault_stats, what);
    ASSERT_EQ(x.engine_stats.has_value(), y.engine_stats.has_value()) << what;
    if (x.engine_stats) {
      expect_same_engine(*x.engine_stats, *y.engine_stats, what);
    }
  }
}

// ---------------------------------------------------------- mode matrix -----

/// Exercised with FEDPKD_TEST_THREADS / FEDPKD_TEST_MODE by the CI
/// async-matrix job (FEDPKD_TEST_MODE in {sync, semisync, async} narrows the
/// sweep to one mode; unset runs semisync and async — sync is test_faults'
/// territory).
TEST(AsyncMatrix, AllAlgorithmsDeterministicAcrossThreadsUnderFaultsAndAttacks) {
  std::size_t threads = 4;
  if (const char* env = std::getenv("FEDPKD_TEST_THREADS")) {
    threads = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  std::vector<fl::RoundMode> modes = {fl::RoundMode::kSemiSync,
                                      fl::RoundMode::kAsync};
  if (const char* env = std::getenv("FEDPKD_TEST_MODE")) {
    modes = {fl::parse_round_mode(env)};
  }
  constexpr std::size_t kRounds = 6;
  const comm::FaultPlan plan = matrix_plan();
  const robust::AttackPlan attacks = matrix_attacks();

  for (const fl::RoundMode mode : modes) {
    for (const std::string& name : kAllAlgorithms) {
      const auto run = [&](std::size_t run_threads) {
        auto fed = small_federation(run_threads);
        fed->channel.set_fault_plan(plan);
        fed->set_attack_plan(attacks);
        apply_mode(*fed, mode);
        auto algo = make_algorithm(name, *fed);
        fl::RunOptions opts;
        opts.rounds = kRounds;
        fl::RunHistory history = fl::run_federation(*algo, *fed, opts);
        exec::set_num_threads(1);
        return history;
      };
      const fl::RunHistory serial = run(1);
      const fl::RunHistory parallel = run(threads);
      const std::string label =
          std::string(fl::to_string(mode)) + "/" + name;
      expect_same_rounds(serial, parallel, label);
      ASSERT_EQ(serial.rounds.size(), kRounds) << label;
      for (const fl::RoundMetrics& r : serial.rounds) {
        ASSERT_TRUE(r.engine_stats.has_value()) << label;
      }
    }
  }
}

// ------------------------------------------------------ engine digests ------

/// FNV-1a over every deterministic RoundMetrics field the end-to-end
/// benchmark's round digest hashes, then the canonical final-state bytes.
class Fnv {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 0x100000001b3ull;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t run_digest(const fl::RunHistory& history,
                         const std::vector<std::byte>& final_state) {
  Fnv d;
  for (const fl::RoundMetrics& m : history.rounds) {
    d.add(m.round);
    d.add(m.server_accuracy.value_or(-1.0f));
    d.add(m.mean_client_accuracy);
    for (float acc : m.client_accuracy) d.add(acc);
    d.add(m.cumulative_bytes);
    if (const auto& f = m.fault_stats) {
      for (std::size_t v :
           {f->send_attempts, f->retries, f->frames_dropped, f->corrupt_frames,
            f->bundles_lost, f->stragglers_excluded, f->rejected_contributions,
            f->quorum_misses, f->clients_crashed, f->attacks_injected,
            f->anomaly_excluded, f->clipped_contributions}) {
        d.add(v);
      }
      d.add(f->max_upload_latency_ms);
    }
    if (const auto& e = m.engine_stats) {
      d.add(e->round_start_ms);
      d.add(e->round_end_ms);
      for (std::size_t v : {e->buffer_flushes, e->aggregated_uploads,
                            e->buffered_uploads, e->inflight_uploads,
                            e->busy_skips, e->max_staleness}) {
        d.add(v);
      }
      for (std::size_t v : e->staleness_hist) d.add(v);
    }
    for (const fl::ClientAnomaly& a : m.anomaly) {
      d.add(a.node);
      d.add(a.score);
      d.add(a.excluded);
    }
  }
  for (std::byte b : final_state) d.add(b);
  return d.value();
}

/// Every algorithm in every round mode under one hostile configuration:
/// drops, corruption, jittered latency, one straggler against a finite
/// deadline, quorum 0.5 (missed once) and a sign-flip attacker, optionally behind the
/// anomaly filter. The digests were recorded when sync rounds and
/// semisync/async rounds still ran through two separate engines, so they pin
/// the one round function to both engines' behaviour bit for bit.
std::uint64_t pinned_cell_digest(const std::string& name, fl::RoundMode mode,
                                 bool anomaly_filter) {
  constexpr std::size_t kRounds = 4;
  comm::FaultPlan plan;
  plan.seed = 0x91e5;
  plan.drop_probability = 0.15;
  plan.corrupt_probability = 0.05;
  plan.latency_ms = 1.0;
  plan.jitter_ms = 0.5;
  plan.max_retries = 3;
  plan.stragglers = {{2, 12.0}};
  // Two crashes plus the straggler leave round 2 below quorum.
  plan.crashes = {{2, comm::RoundStage::kUpload, 0},
                  {2, comm::RoundStage::kUpload, 1}};
  robust::AttackPlan attacks;
  robust::AdversarialClient sign;
  sign.type = robust::AttackType::kSignFlip;
  sign.node = 3;
  attacks.adversaries = {sign};
  attacks.start_round = 1;

  auto fed = small_federation(1);
  fed->channel.set_fault_plan(plan);
  fed->set_attack_plan(attacks);
  fed->policy.mode = mode;
  fed->policy.upload_deadline_ms = 15.0;
  fed->policy.quorum_fraction = 0.5;
  if (mode == fl::RoundMode::kAsync) {
    fed->policy.wake_interval_ms = 8.0;
    fed->policy.buffer_k = 3;
    fed->policy.staleness_beta = 0.5;
  }
  fed->robust.anomaly_filter = anomaly_filter;
  fed->robust.anomaly_theta = 3.0;
  auto algo = make_algorithm(name, *fed);
  fl::RunOptions opts;
  opts.rounds = kRounds;
  const fl::RunHistory history = fl::run_federation(*algo, *fed, opts);
  if (algo->supports_resume()) {
    return run_digest(history, fl::encode_federation_checkpoint(
                                   *algo, *fed, kRounds, history));
  }
  // FedMD and DS-FL keep no resumable state; pin the engine state and every
  // client model instead.
  std::vector<std::byte> state;
  fed->engine.save_state(state);
  for (std::size_t c = 0; c < fed->num_clients(); ++c) {
    const tensor::Tensor w = fed->client(c).model.flat_weights();
    const auto* bytes = reinterpret_cast<const std::byte*>(w.data());
    state.insert(state.end(), bytes, bytes + w.numel() * sizeof(float));
  }
  return run_digest(history, state);
}

struct PinnedCell {
  const char* algorithm;
  fl::RoundMode mode;
  bool anomaly_filter;
  std::uint64_t digest;
};

TEST(EnginePin, AllAlgorithmsAllModesMatchRecordedDigests) {
  // Sync with the anomaly filter on, then all three modes with it off.
  const std::vector<PinnedCell> cells = {
      {"FedAvg", fl::RoundMode::kSync, true, 0x213c0ffc747b4357ull},
      {"FedProx", fl::RoundMode::kSync, true, 0x9df29a5916b8c542ull},
      {"FedMD", fl::RoundMode::kSync, true, 0xd6ffd422ff9adc2full},
      {"DS-FL", fl::RoundMode::kSync, true, 0xe06271197bd58e9eull},
      {"FedDF", fl::RoundMode::kSync, true, 0xd22de0991a0ae4a1ull},
      {"FedET", fl::RoundMode::kSync, true, 0xe8b930fc6dfede48ull},
      {"FedProto", fl::RoundMode::kSync, true, 0x5ac4f3784d09a55bull},
      {"FedPKD", fl::RoundMode::kSync, true, 0x138abdae8d71ae17ull},
      {"FedAvg", fl::RoundMode::kSync, false, 0xce3cabac598bf40bull},
      {"FedProx", fl::RoundMode::kSync, false, 0x97beaa6f95948608ull},
      {"FedMD", fl::RoundMode::kSync, false, 0x0de7527a33da2ce8ull},
      {"DS-FL", fl::RoundMode::kSync, false, 0xd825442d6cac8ecaull},
      {"FedDF", fl::RoundMode::kSync, false, 0x8836d76e04626e0dull},
      {"FedET", fl::RoundMode::kSync, false, 0x058898f7732a6be2ull},
      {"FedProto", fl::RoundMode::kSync, false, 0xe30f37ffebc8c0b0ull},
      {"FedPKD", fl::RoundMode::kSync, false, 0x46435aee8f942e59ull},
      {"FedAvg", fl::RoundMode::kSemiSync, false, 0x0b82a9e8cd65b1ebull},
      {"FedProx", fl::RoundMode::kSemiSync, false, 0x5871bbce98cc3614ull},
      {"FedMD", fl::RoundMode::kSemiSync, false, 0x182cc2d0836be89aull},
      {"DS-FL", fl::RoundMode::kSemiSync, false, 0xaff0e4929ba01d9full},
      {"FedDF", fl::RoundMode::kSemiSync, false, 0xecae83f4d6870a2aull},
      {"FedET", fl::RoundMode::kSemiSync, false, 0xefd9025fd4100406ull},
      {"FedProto", fl::RoundMode::kSemiSync, false, 0xc4c5e476b45f3c28ull},
      {"FedPKD", fl::RoundMode::kSemiSync, false, 0x88ce998da4ceb111ull},
      {"FedAvg", fl::RoundMode::kAsync, false, 0xdb72375a05b32e58ull},
      {"FedProx", fl::RoundMode::kAsync, false, 0x71c25bcd48f3eb48ull},
      {"FedMD", fl::RoundMode::kAsync, false, 0x7023fad56ea52f69ull},
      {"DS-FL", fl::RoundMode::kAsync, false, 0x8003ce3541743ff2ull},
      {"FedDF", fl::RoundMode::kAsync, false, 0x155f5526bd991d53ull},
      {"FedET", fl::RoundMode::kAsync, false, 0xc4c77aa95bd7a1f0ull},
      {"FedProto", fl::RoundMode::kAsync, false, 0xb6333beaac629dc1ull},
      {"FedPKD", fl::RoundMode::kAsync, false, 0xcbf0f8d5fb0dd549ull},
  };
  for (const PinnedCell& cell : cells) {
    const std::uint64_t got =
        pinned_cell_digest(cell.algorithm, cell.mode, cell.anomaly_filter);
    EXPECT_EQ(got, cell.digest)
        << cell.algorithm << "/" << fl::to_string(cell.mode)
        << (cell.anomaly_filter ? "/anomaly" : "");
  }
}

// ----------------------------------------------------- async semantics ------

/// FedBuff mechanics on a heavy-tail fleet: fast clients flush in pairs every
/// wake, straggler uploads stay in flight across slices (busy skips), and
/// when they finally land they carry visible staleness.
TEST(AsyncSemantics, BufferFlushesBusySkipsAndStaleness) {
  comm::FaultPlan plan;
  plan.seed = 0xa57c;
  plan.latency_ms = 2.0;
  plan.max_retries = 3;
  plan.stragglers = {{1, 30.0}, {2, 50.0}};

  auto fed = small_federation(1);
  fed->channel.set_fault_plan(plan);
  fed->policy.mode = fl::RoundMode::kAsync;
  fed->policy.wake_interval_ms = 20.0;
  fed->policy.buffer_k = 2;
  fed->policy.staleness_beta = 0.5;
  auto algo = make_algorithm("FedAvg", *fed);
  fl::RunOptions opts;
  opts.rounds = 8;
  const fl::RunHistory history = fl::run_federation(*algo, *fed, opts);
  ASSERT_EQ(history.rounds.size(), 8u);

  std::size_t flushes = 0, busy = 0, max_stale = 0;
  double prev_end = -1.0;
  for (const fl::RoundMetrics& r : history.rounds) {
    ASSERT_TRUE(r.engine_stats.has_value());
    const fl::RoundEngineStats& e = *r.engine_stats;
    // Simulated time advances monotonically, one wake slice per round.
    EXPECT_EQ(e.round_start_ms, prev_end < 0.0 ? 0.0 : prev_end);
    EXPECT_EQ(e.round_end_ms, e.round_start_ms + 20.0);
    prev_end = e.round_end_ms;
    // The staleness histogram covers exactly the aggregated uploads (no
    // anomaly filter is configured).
    std::size_t hist_total = 0;
    for (const std::size_t count : e.staleness_hist) hist_total += count;
    EXPECT_EQ(hist_total, e.aggregated_uploads);
    flushes += e.buffer_flushes;
    busy += e.busy_skips;
    max_stale = std::max(max_stale, e.max_staleness);
  }
  // The global model version is the flush count, and the buffer flushed at
  // least once per two wakes (two fast clients with buffer_k = 2).
  EXPECT_EQ(fed->engine.global_version, flushes);
  EXPECT_GE(flushes, 4u);
  // Straggler uploads crossed wake slices: their owners skipped wakes while
  // the upload was in flight, and their contributions arrived stale.
  EXPECT_GE(busy, 4u);
  EXPECT_GE(max_stale, 2u);
  EXPECT_EQ(fed->engine.now_ms, history.rounds.back().engine_stats->round_end_ms);
}

/// A sign-flipping client at scale 10 behind the anomaly filter: every mode
/// excludes it before the server step, and the staleness histogram counts
/// only what the server step consumed, never an excluded upload.
TEST(AsyncSemantics, StalenessHistogramCountsOnlyAggregatedUploads) {
  for (const fl::RoundMode mode : {fl::RoundMode::kSync,
                                   fl::RoundMode::kSemiSync,
                                   fl::RoundMode::kAsync}) {
    robust::AttackPlan attacks;
    robust::AdversarialClient sign;
    sign.type = robust::AttackType::kSignFlip;
    sign.node = 3;
    sign.scale = 10.0;
    attacks.adversaries = {sign};

    auto fed = small_federation(1);
    fed->set_attack_plan(attacks);
    fed->robust.anomaly_filter = true;
    fed->robust.anomaly_theta = 3.0;
    fed->policy.mode = mode;
    fed->policy.upload_deadline_ms = 100.0;
    fed->policy.wake_interval_ms = 100.0;
    fed->policy.buffer_k = 4;
    auto algo = make_algorithm("FedAvg", *fed);
    fl::RunOptions opts;
    opts.rounds = 3;
    const fl::RunHistory history = fl::run_federation(*algo, *fed, opts);

    const std::string label = fl::to_string(mode);
    std::size_t excluded = 0;
    for (const fl::RoundMetrics& r : history.rounds) {
      ASSERT_TRUE(r.engine_stats.has_value()) << label;
      ASSERT_TRUE(r.fault_stats.has_value()) << label;
      const fl::RoundEngineStats& e = *r.engine_stats;
      std::size_t hist_total = 0;
      for (const std::size_t count : e.staleness_hist) hist_total += count;
      EXPECT_EQ(hist_total, e.aggregated_uploads) << label << " round "
                                                  << r.round;
      excluded += r.fault_stats->anomaly_excluded;
    }
    EXPECT_GT(excluded, 0u) << label << ": the filter never fired";
  }
}

TEST(AsyncSemantics, SemisyncDeadlineExcludesLateUploads) {
  comm::FaultPlan plan;
  plan.seed = 0x5e3a;
  plan.latency_ms = 2.0;
  plan.max_retries = 3;
  plan.stragglers = {{2, 40.0}};

  auto fed = small_federation(1);
  fed->channel.set_fault_plan(plan);
  fed->policy.mode = fl::RoundMode::kSemiSync;
  fed->policy.upload_deadline_ms = 30.0;
  auto algo = make_algorithm("FedAvg", *fed);
  fl::RunOptions opts;
  opts.rounds = 3;
  const fl::RunHistory history = fl::run_federation(*algo, *fed, opts);

  for (const fl::RoundMetrics& r : history.rounds) {
    ASSERT_TRUE(r.fault_stats.has_value());
    ASSERT_TRUE(r.engine_stats.has_value());
    // The straggler (80ms+ past a 30ms tick) misses every deadline; the
    // other three aggregate in one flush at the tick.
    EXPECT_EQ(r.fault_stats->stragglers_excluded, 1u);
    EXPECT_EQ(r.engine_stats->buffer_flushes, 1u);
    EXPECT_EQ(r.engine_stats->aggregated_uploads, 3u);
    // Nothing lingers across a semisync round: late uploads are dropped at
    // the deadline, not buffered.
    EXPECT_EQ(r.engine_stats->buffered_uploads, 0u);
    EXPECT_EQ(r.engine_stats->inflight_uploads, 0u);
  }
}

TEST(AsyncSemantics, SemisyncRequiresFiniteDeadline) {
  auto fed = small_federation(1);
  fed->policy.mode = fl::RoundMode::kSemiSync;
  // The default policy has no deadline — the engine must refuse rather than
  // schedule an aggregation tick at infinity.
  auto algo = make_algorithm("FedAvg", *fed);
  fl::RunOptions opts;
  opts.rounds = 1;
  EXPECT_THROW(fl::run_federation(*algo, *fed, opts), std::invalid_argument);
}

TEST(AsyncSemantics, RoundModeParsing) {
  EXPECT_EQ(fl::parse_round_mode("sync"), fl::RoundMode::kSync);
  EXPECT_EQ(fl::parse_round_mode("semisync"), fl::RoundMode::kSemiSync);
  EXPECT_EQ(fl::parse_round_mode("async"), fl::RoundMode::kAsync);
  EXPECT_THROW(fl::parse_round_mode("buffered"), std::invalid_argument);
  EXPECT_STREQ(fl::to_string(fl::RoundMode::kSemiSync), "semisync");
}

// ------------------------------------------------- mid-buffer crash-resume --

struct ScopedPath {
  std::filesystem::path path;
  explicit ScopedPath(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {}
  ~ScopedPath() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

/// Async fault plan tuned so the checkpoint cut lands mid-buffer: extreme
/// stragglers keep uploads in flight for whole wake slices, and buffer_k = 3
/// against two fast clients leaves a partial buffer at every round boundary.
comm::FaultPlan mid_buffer_plan() {
  comm::FaultPlan plan;
  plan.seed = 0xb0f5;
  plan.latency_ms = 1.0;
  plan.jitter_ms = 0.5;
  plan.max_retries = 3;
  plan.stragglers = {{1, 150.0}, {2, 250.0}};
  plan.crashes = {{4, comm::RoundStage::kUpload, 0}};
  return plan;
}

void apply_async_policy(fl::Federation& fed) {
  fed.policy.mode = fl::RoundMode::kAsync;
  fed.policy.buffer_k = 3;
  fed.policy.staleness_beta = 0.5;
  fed.policy.wake_interval_ms = 100.0;
}

void expect_bitwise_mid_buffer_resume(const std::string& name) {
  const comm::FaultPlan plan = mid_buffer_plan();
  constexpr std::size_t kTotalRounds = 6;
  // After round 1 the two fast clients have flushed once (their third upload
  // restarts the buffer) and both straggler uploads are still on the wire —
  // the checkpoint lands mid-buffer by construction.
  constexpr std::size_t kCut = 2;
  fl::RunOptions base;
  base.rounds = kTotalRounds;

  // Reference: the uninterrupted async run.
  auto straight_fed = small_federation(1);
  straight_fed->channel.set_fault_plan(plan);
  apply_async_policy(*straight_fed);
  auto straight = make_algorithm(name, *straight_fed);
  const fl::RunHistory want = fl::run_federation(*straight, *straight_fed, base);

  // Interrupted run: checkpoint after round kCut, then "crash". The cut must
  // land mid-buffer — a partially filled aggregation buffer AND uploads
  // still crossing the wire — or this test is not exercising v5 at all.
  const ScopedPath ckpt("fedpkd_test_async_" + name + ".ckpt");
  auto first_fed = small_federation(1);
  first_fed->channel.set_fault_plan(plan);
  apply_async_policy(*first_fed);
  auto first = make_algorithm(name, *first_fed);
  fl::RunOptions until_cut = base;
  until_cut.rounds = kCut;
  until_cut.checkpoint_every = kCut;
  until_cut.checkpoint_path = ckpt.path;
  fl::run_federation(*first, *first_fed, until_cut);
  ASSERT_TRUE(std::filesystem::exists(ckpt.path)) << name;
  ASSERT_GT(first_fed->engine.buffer.size(), 0u)
      << name << ": cut did not land with a partial aggregation buffer";
  ASSERT_GT(first_fed->engine.in_flight.size(), 0u)
      << name << ": cut did not land with uploads in flight";

  // Resume: rebuild the identical configuration, restore, run the rest.
  auto resumed_fed = small_federation(1);
  resumed_fed->channel.set_fault_plan(plan);
  apply_async_policy(*resumed_fed);
  auto resumed = make_algorithm(name, *resumed_fed);
  const fl::FederationResume state =
      fl::load_federation_checkpoint(ckpt.path, *resumed, *resumed_fed);
  ASSERT_EQ(state.next_round, kCut) << name;
  ASSERT_EQ(state.history.rounds.size(), kCut) << name;
  // The engine came back exactly as checkpointed: clock, version, buffer,
  // and in-flight arrivals.
  EXPECT_EQ(resumed_fed->engine.now_ms, first_fed->engine.now_ms) << name;
  EXPECT_EQ(resumed_fed->engine.global_version,
            first_fed->engine.global_version)
      << name;
  ASSERT_EQ(resumed_fed->engine.buffer.size(), first_fed->engine.buffer.size())
      << name;
  ASSERT_EQ(resumed_fed->engine.in_flight.size(),
            first_fed->engine.in_flight.size())
      << name;
  for (std::size_t i = 0; i < first_fed->engine.in_flight.size(); ++i) {
    EXPECT_EQ(resumed_fed->engine.in_flight[i].arrival_ms,
              first_fed->engine.in_flight[i].arrival_ms)
        << name;
    EXPECT_EQ(resumed_fed->engine.in_flight[i].parts,
              first_fed->engine.in_flight[i].parts)
        << name;
  }
  fl::RunOptions rest = base;
  rest.start_round = state.next_round;
  const fl::RunHistory tail = fl::run_federation(*resumed, *resumed_fed, rest);

  // Stitched history matches the uninterrupted run bitwise, engine stats
  // included.
  fl::RunHistory got;
  got.rounds = state.history.rounds;
  got.rounds.insert(got.rounds.end(), tail.rounds.begin(), tail.rounds.end());
  expect_same_rounds(want, got, name);

  // The models themselves ended up bit-identical, not just the metrics.
  ASSERT_NE(straight->server_model(), nullptr) << name;
  ASSERT_NE(resumed->server_model(), nullptr) << name;
  EXPECT_EQ(
      tensor::max_abs_difference(straight->server_model()->flat_weights(),
                                 resumed->server_model()->flat_weights()),
      0.0f)
      << name;
  for (std::size_t c = 0; c < straight_fed->num_clients(); ++c) {
    EXPECT_EQ(tensor::max_abs_difference(
                  straight_fed->client(c).model.flat_weights(),
                  resumed_fed->client(c).model.flat_weights()),
              0.0f)
        << name << " client " << c;
  }
}

TEST(AsyncCrashResume, FedAvgResumesBitwiseMidBuffer) {
  expect_bitwise_mid_buffer_resume("FedAvg");
}

TEST(AsyncCrashResume, FedPkdResumesBitwiseMidBuffer) {
  expect_bitwise_mid_buffer_resume("FedPKD");
}

// -------------------------------------------------------- quorum boundary ---

/// Two of four clients crash at the first upload, leaving a survivor
/// fraction of exactly 0.5: a quorum_fraction of exactly 0.5 must aggregate
/// (need = ceil(0.5 * 4) = 2 = survivors), while any fraction above it must
/// miss. Checked in both barrier modes that have a quorum.
void expect_quorum_boundary(fl::RoundMode mode) {
  const auto run = [&](double quorum) {
    comm::FaultPlan plan;
    plan.seed = 0x9042;
    plan.latency_ms = 1.0;
    plan.crashes = {{0, comm::RoundStage::kUpload, 1},
                    {0, comm::RoundStage::kUpload, 2}};
    auto fed = small_federation(1);
    fed->channel.set_fault_plan(plan);
    fed->policy.mode = mode;
    if (mode == fl::RoundMode::kSemiSync) {
      fed->policy.upload_deadline_ms = 50.0;
    }
    fed->policy.quorum_fraction = quorum;
    auto algo = make_algorithm("FedAvg", *fed);
    fl::RunOptions opts;
    opts.rounds = 1;
    return fl::run_federation(*algo, *fed, opts);
  };
  const std::string label = fl::to_string(mode);

  const fl::RunHistory at_boundary = run(0.5);
  ASSERT_TRUE(at_boundary.rounds[0].fault_stats.has_value()) << label;
  EXPECT_EQ(at_boundary.rounds[0].fault_stats->clients_crashed, 2u) << label;
  EXPECT_EQ(at_boundary.rounds[0].fault_stats->quorum_misses, 0u)
      << label << ": survivors == ceil(q*n) must aggregate";

  const fl::RunHistory above = run(0.51);
  ASSERT_TRUE(above.rounds[0].fault_stats.has_value()) << label;
  EXPECT_EQ(above.rounds[0].fault_stats->quorum_misses, 1u)
      << label << ": survivors < ceil(q*n) must miss";
}

TEST(QuorumBoundary, ExactSurvivorFractionAggregatesInSync) {
  expect_quorum_boundary(fl::RoundMode::kSync);
}

TEST(QuorumBoundary, ExactSurvivorFractionAggregatesInSemisync) {
  expect_quorum_boundary(fl::RoundMode::kSemiSync);
}

}  // namespace
}  // namespace fedpkd
