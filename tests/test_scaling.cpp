// Parallel-scaling acceptance tests for the round hot path.
//
// Two obligations, one per test:
//
//  1. Wall-clock: a 4-lane round of FedAvg and FedPKD must not be slower
//     than the serial round (generous 1.1x guard plus a small absolute
//     epsilon). Before the grain-size heuristics and the nesting budget,
//     smoke-scale loops fanned out into sub-grain chunks and 4 threads lost
//     to 1; this test pins the fix. Measurements are warmed and min-of-N —
//     the same methodology as bench/micro_parallel — so one noisy run on a
//     shared machine cannot flip the verdict. On a single-core machine the
//     thread-count clamp makes both runs serial and the guard holds
//     trivially; on any multicore box a scheduling regression fails it.
//
//  2. Bitwise identity: every algorithm driver, with the full fault matrix
//     AND an active adversary, produces bit-identical histories at 1, 2, 3,
//     4, and 8 threads. This is the determinism contract the pool rework,
//     grain heuristics, packed GEMM, and batched cohort stepping all had to
//     preserve, checked end-to-end in one sweep.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fedpkd/comm/fault.hpp"
#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/core/fedproto.hpp"
#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/dsfl.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/feddf.hpp"
#include "fedpkd/fl/fedet.hpp"
#include "fedpkd/fl/fedmd.hpp"
#include "fedpkd/fl/fedprox.hpp"
#include "fedpkd/fl/round_pipeline.hpp"
#include "fedpkd/robust/attack.hpp"

namespace fedpkd {
namespace {

using Clock = std::chrono::steady_clock;

std::uint32_t float_bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

const std::vector<std::string> kAllAlgorithms = {
    "FedAvg", "FedProx", "FedMD", "DS-FL",
    "FedDF",  "FedET",   "FedProto", "FedPKD"};

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

// ------------------------------------------------------ wall-clock guard ----

/// One timed federation run at `threads` lanes, micro_parallel's bench
/// configuration: 8 clients, Dirichlet(0.3) partition of the 1600/400/400
/// bundle. Rebuilt per measurement so every run does identical work.
double timed_round(const std::string& algorithm,
                   const data::FederatedDataBundle& bundle,
                   std::size_t threads) {
  fl::FederationConfig config;
  config.num_clients = 8;
  config.client_archs = algorithm == "FedAvg"
                            ? std::vector<std::string>{"resmlp20"}
                            : std::vector<std::string>{"resmlp11", "resmlp20"};
  config.local_test_per_client = 50;
  config.seed = 11;
  config.num_threads = threads;
  auto fed =
      fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3), config);

  std::unique_ptr<fl::Algorithm> algo;
  if (algorithm == "FedPKD") {
    core::FedPkd::Options options;
    options.local_epochs = 2;
    options.public_epochs = 1;
    options.server_epochs = 2;
    options.server_arch = "resmlp20";
    algo = std::make_unique<core::FedPkd>(*fed, options);
  } else {
    algo = std::make_unique<fl::FedAvg>(
        *fed, fl::FedAvg::Options{.local_epochs = 2, .proximal_mu = {}});
  }

  fl::RunOptions run;
  run.rounds = 1;
  const auto start = Clock::now();
  fl::run_federation(*algo, *fed, run);
  const auto stop = Clock::now();
  exec::set_num_threads(1);
  return std::chrono::duration<double>(stop - start).count();
}

TEST(ParallelScaling, FourLanesNoSlowerThanSerialAtBenchScale) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(11));
  const auto bundle = task.make_bundle(1600, 400, 400);

  for (const std::string algorithm : {"FedAvg", "FedPKD"}) {
    // A warm-up pair discarded, then serial and 4-lane rounds alternate pair
    // by pair: a burst of host load lands on both sides, and each side keeps
    // its minimum over the same three pairs.
    timed_round(algorithm, bundle, 1);
    timed_round(algorithm, bundle, 4);
    double serial = timed_round(algorithm, bundle, 1);
    double parallel = timed_round(algorithm, bundle, 4);
    for (int pair = 1; pair < 3; ++pair) {
      serial = std::min(serial, timed_round(algorithm, bundle, 1));
      parallel = std::min(parallel, timed_round(algorithm, bundle, 4));
    }
    // 1.1x relative guard (the fan-out must at least not hurt) plus 20ms
    // absolute slack so scheduler jitter on near-identical times (the
    // single-core clamp case) cannot flake the test.
    EXPECT_LE(parallel, serial * 1.1 + 0.02)
        << algorithm << ": 4-thread round took " << parallel
        << "s vs serial " << serial << "s";
  }
}

// ------------------------------------------------- thread-sweep identity ----

/// The full hostile environment: 20% drop, 5% corruption, latency + jitter,
/// two stragglers, a scripted mid-round crash, and a sign-flip adversary
/// held off by coordinate-median aggregation.
std::unique_ptr<fl::Federation> hostile_federation(const std::string& name,
                                                   std::size_t threads) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(31));
  const auto bundle = task.make_bundle(150, 90, 60);
  fl::FederationConfig config;
  config.num_clients = 5;
  // Weight-space aggregation (FedAvg/FedProx/FedDF's fusion) needs one
  // architecture; the rest of the distillation family runs heterogeneous so
  // the sweep also covers cohort stepping's grouped and singleton paths.
  const bool homogeneous =
      name == "FedAvg" || name == "FedProx" || name == "FedDF";
  config.client_archs = homogeneous
                            ? std::vector<std::string>{"resmlp11"}
                            : std::vector<std::string>{"resmlp11", "resmlp20"};
  config.local_test_per_client = 30;
  config.seed = 33;
  config.num_threads = threads;
  auto fed = fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3),
                                  config);

  comm::FaultPlan faults;
  faults.seed = 0xfa01701;
  faults.drop_probability = 0.2;
  faults.corrupt_probability = 0.05;
  faults.latency_ms = 1.0;
  faults.jitter_ms = 0.5;
  faults.max_retries = 3;
  faults.stragglers = {{1, 3.0}, {2, 5.0}};
  faults.crashes = {{5, comm::RoundStage::kUpload, 1}};
  fed->channel.set_fault_plan(faults);

  fed->robust.rule = robust::RobustAggregation::kMedian;
  robust::AttackPlan attacks;
  attacks.seed = 0x41414141u;
  attacks.adversaries = {{2, robust::AttackType::kSignFlip, 25.0}};
  fed->set_attack_plan(attacks);
  return fed;
}

fl::RunHistory run_hostile(const std::string& name, std::size_t threads,
                           std::size_t rounds) {
  auto fed = hostile_federation(name, threads);
  auto algo = make_algorithm(name, *fed);
  fl::RunOptions opts;
  opts.rounds = rounds;
  fl::RunHistory history = fl::run_federation(*algo, *fed, opts);
  exec::set_num_threads(1);
  return history;
}

void expect_same_history(const fl::RunHistory& a, const fl::RunHistory& b,
                         const std::string& what) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << what;
  for (std::size_t t = 0; t < a.rounds.size(); ++t) {
    const fl::RoundMetrics& ra = a.rounds[t];
    const fl::RoundMetrics& rb = b.rounds[t];
    const std::string where = what + " round " + std::to_string(t);
    ASSERT_EQ(ra.server_accuracy.has_value(), rb.server_accuracy.has_value())
        << where;
    if (ra.server_accuracy) {
      EXPECT_EQ(float_bits(*ra.server_accuracy), float_bits(*rb.server_accuracy))
          << where;
    }
    ASSERT_EQ(ra.client_accuracy.size(), rb.client_accuracy.size()) << where;
    for (std::size_t c = 0; c < ra.client_accuracy.size(); ++c) {
      EXPECT_EQ(float_bits(ra.client_accuracy[c]),
                float_bits(rb.client_accuracy[c]))
          << where << " client " << c;
    }
    EXPECT_EQ(ra.cumulative_bytes, rb.cumulative_bytes) << where;
    ASSERT_EQ(ra.fault_stats.has_value(), rb.fault_stats.has_value()) << where;
    if (ra.fault_stats) {
      const fl::RoundFaultStats& fa = *ra.fault_stats;
      const fl::RoundFaultStats& fb = *rb.fault_stats;
      EXPECT_EQ(fa.send_attempts, fb.send_attempts) << where;
      EXPECT_EQ(fa.retries, fb.retries) << where;
      EXPECT_EQ(fa.frames_dropped, fb.frames_dropped) << where;
      EXPECT_EQ(fa.corrupt_frames, fb.corrupt_frames) << where;
      EXPECT_EQ(fa.bundles_lost, fb.bundles_lost) << where;
      EXPECT_EQ(fa.stragglers_excluded, fb.stragglers_excluded) << where;
      EXPECT_EQ(fa.rejected_contributions, fb.rejected_contributions) << where;
      EXPECT_EQ(fa.quorum_misses, fb.quorum_misses) << where;
      EXPECT_EQ(fa.clients_crashed, fb.clients_crashed) << where;
      EXPECT_EQ(fa.attacks_injected, fb.attacks_injected) << where;
      EXPECT_EQ(fa.anomaly_excluded, fb.anomaly_excluded) << where;
      EXPECT_DOUBLE_EQ(fa.max_upload_latency_ms, fb.max_upload_latency_ms)
          << where;
    }
    ASSERT_EQ(ra.anomaly.size(), rb.anomaly.size()) << where;
    for (std::size_t i = 0; i < ra.anomaly.size(); ++i) {
      EXPECT_EQ(ra.anomaly[i].node, rb.anomaly[i].node) << where;
      EXPECT_EQ(float_bits(ra.anomaly[i].score),
                float_bits(rb.anomaly[i].score))
          << where;
      EXPECT_EQ(ra.anomaly[i].excluded, rb.anomaly[i].excluded) << where;
    }
  }
}

TEST(ParallelScaling, ThreadSweepBitwiseIdenticalUnderFaultsAndAttacks) {
  // The 8-lane leg exists to exercise oversubscribed scheduling; without the
  // override, set_num_threads would clamp it to the core count on small CI
  // hosts and that configuration would silently stop being tested.
  ::setenv("FEDPKD_THREADS_OVERSUBSCRIBE", "1", 1);
  constexpr std::size_t kRounds = 2;
  for (const std::string& name : kAllAlgorithms) {
    const fl::RunHistory reference = run_hostile(name, 1, kRounds);
    for (std::size_t threads : {2, 3, 4, 8}) {
      const fl::RunHistory swept = run_hostile(name, threads, kRounds);
      expect_same_history(reference, swept,
                          name + " @ " + std::to_string(threads) + " threads");
    }
  }
  ::unsetenv("FEDPKD_THREADS_OVERSUBSCRIBE");
}

}  // namespace
}  // namespace fedpkd
