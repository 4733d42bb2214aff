// Tests for the virtual-client pool (fl::ClientPool) and its integration
// with the round pipeline:
//
//  * deterministic bounded-LRU eviction and the hydration counters,
//  * bitwise dehydrate -> evict -> rehydrate round-trips (weights, RNG
//    stream including its internal state, and the regenerated data shard),
//  * eviction invisibility: every driver produces bitwise identical
//    histories whether the warm cache is tiny (constant churn) or large
//    (nothing ever evicted), at 1 and 4 lanes, under seeded faults and
//    adversarial clients,
//  * the free-rider replay cache surviving dehydration of the attacker,
//  * checkpoint v4 crash-resume of a virtual federation with eviction
//    churn (also with a warm set above its capacity, at 1 and 4 lanes, with
//    per-round pool counters equal to the straight run's), plus
//    mode/population mismatch rejection,
//  * hierarchical edge aggregation: partition bounds, bitwise-degenerate
//    configurations, and the two-tier path across payload kinds,
//  * golden hydration equivalence: a seeded pin script whose LRU order,
//    counters and pool-state bytes were recorded with the serial hydration
//    loop, checked at 1 and 4 lanes, plus all-or-nothing pin validation,
//  * thread-safety of concurrent hydrate/evict and of lane-parallel pins
//    (run under TSan in CI),
//  * the spill file: one extent per distinct evicted client however often
//    it is evicted, a store that load_state rewrites rather than grows, a
//    damaged blob that fails its client's hydration, a failed write that
//    keeps its victim warm, and a missing temp directory that fails the
//    first eviction without evicting anything.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/core/fedproto.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/dsfl.hpp"
#include "fedpkd/fl/durable_io.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/feddf.hpp"
#include "fedpkd/fl/fedet.hpp"
#include "fedpkd/fl/fedmd.hpp"
#include "fedpkd/fl/fedprox.hpp"
#include "fedpkd/robust/aggregate.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd {
namespace {

std::uint32_t float_bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

// ------------------------------------------------------------- fixtures ------

const std::vector<std::string> kAllAlgorithms = {
    "FedAvg", "FedProx", "FedMD", "DS-FL",
    "FedDF",  "FedET",   "FedProto", "FedPKD"};

constexpr std::size_t kPopulation = 12;
constexpr std::size_t kCohort = 4;
constexpr std::size_t kTinyWarm = 4;    // forces eviction churn every round
constexpr std::size_t kLargeWarm = 64;  // nothing is ever evicted

std::unique_ptr<fl::Federation> virtual_federation(
    std::size_t threads, std::size_t warm, std::size_t population = kPopulation,
    std::size_t cohort = kCohort) {
  fl::VirtualFederationConfig config;
  config.task = data::SyntheticVisionConfig::synth10(901);
  config.population = population;
  config.cohort_size = cohort;
  config.warm_capacity = warm;
  config.client_archs = {"resmlp11"};
  config.shard_size = 40;
  config.local_test_per_client = 24;
  config.test_n = 160;
  config.public_n = 120;
  config.seed = 902;
  config.num_threads = threads;
  return fl::build_virtual_federation(config);
}

/// One-epoch configuration of every driver (test_pipeline's golden options,
/// with the small server arch).
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

/// A modest seeded fault plan plus two adversaries: enough to exercise the
/// retry, validation, and attack paths without starving rounds.
comm::FaultPlan pool_fault_plan() {
  comm::FaultPlan plan;
  plan.drop_probability = 0.1;
  plan.corrupt_probability = 0.02;
  plan.max_retries = 4;
  plan.seed = 1717;
  return plan;
}

robust::AttackPlan pool_attack_plan() {
  robust::AttackPlan plan;
  plan.seed = 0x41747461u;
  plan.start_round = 0;
  plan.adversaries.push_back(
      {/*node=*/1, robust::AttackType::kSignFlip, /*scale=*/10.0});
  plan.adversaries.push_back(
      {/*node=*/2, robust::AttackType::kFreeRider, /*scale=*/10.0});
  return plan;
}

fl::RunHistory run_virtual(const std::string& name, std::size_t threads,
                           std::size_t warm, std::size_t rounds,
                           fl::PoolRoundStats* totals = nullptr) {
  auto fed = virtual_federation(threads, warm);
  const comm::FaultPlan plan = pool_fault_plan();
  fed->channel.set_fault_plan(plan);
  fed->set_attack_plan(pool_attack_plan());
  auto algo = make_algorithm(name, *fed);
  fl::RunOptions options;
  options.rounds = rounds;
  fl::RunHistory history = fl::run_federation(*algo, *fed, options);
  exec::set_num_threads(1);
  if (totals != nullptr) {
    for (const fl::RoundMetrics& r : history.rounds) {
      if (r.pool_stats) *totals += *r.pool_stats;
    }
  }
  return history;
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
  EXPECT_EQ(a.anomaly_excluded, b.anomaly_excluded) << what;
  EXPECT_EQ(a.clipped_contributions, b.clipped_contributions) << what;
}

/// Bitwise history equality: accuracies, traffic, fault counters. Pool
/// counters are only compared when `compare_pool` — two warm-capacity
/// settings legitimately differ in hit/eviction counts while agreeing on
/// every result.
void expect_same_history(const fl::RunHistory& a, const fl::RunHistory& b,
                         const std::string& what, bool compare_pool) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << what;
  for (std::size_t t = 0; t < a.rounds.size(); ++t) {
    const fl::RoundMetrics& x = a.rounds[t];
    const fl::RoundMetrics& y = b.rounds[t];
    const std::string where = what + " round " + std::to_string(t);
    ASSERT_EQ(x.server_accuracy.has_value(), y.server_accuracy.has_value())
        << where;
    if (x.server_accuracy) {
      EXPECT_EQ(float_bits(*x.server_accuracy), float_bits(*y.server_accuracy))
          << where;
    }
    ASSERT_EQ(x.client_accuracy.size(), y.client_accuracy.size()) << where;
    for (std::size_t c = 0; c < x.client_accuracy.size(); ++c) {
      EXPECT_EQ(float_bits(x.client_accuracy[c]),
                float_bits(y.client_accuracy[c]))
          << where << " client " << c;
    }
    EXPECT_EQ(x.cumulative_bytes, y.cumulative_bytes) << where;
    ASSERT_EQ(x.fault_stats.has_value(), y.fault_stats.has_value()) << where;
    if (x.fault_stats) expect_same_faults(*x.fault_stats, *y.fault_stats, where);
    if (compare_pool) {
      ASSERT_EQ(x.pool_stats.has_value(), y.pool_stats.has_value()) << where;
      if (x.pool_stats) {
        EXPECT_EQ(x.pool_stats->hits, y.pool_stats->hits) << where;
        EXPECT_EQ(x.pool_stats->misses, y.pool_stats->misses) << where;
        EXPECT_EQ(x.pool_stats->hydrations, y.pool_stats->hydrations) << where;
        EXPECT_EQ(x.pool_stats->evictions, y.pool_stats->evictions) << where;
        EXPECT_EQ(x.pool_stats->warm_clients, y.pool_stats->warm_clients)
            << where;
      }
    }
  }
}

struct ScopedPath {
  std::filesystem::path path;
  explicit ScopedPath(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {}
  ~ScopedPath() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

// ----------------------------------------------------------- LRU basics ------

TEST(ClientPool, LruEvictionIsDeterministic) {
  auto fed = virtual_federation(1, /*warm=*/3, /*population=*/6);
  fl::ClientPool& pool = fed->pool;
  ASSERT_TRUE(pool.virtual_mode());
  ASSERT_EQ(pool.warm_count(), 0u);

  for (std::size_t id : {0u, 1u, 2u}) (void)pool.acquire(id);
  EXPECT_EQ(pool.warm_ids_lru(), (std::vector<std::size_t>{0, 1, 2}));

  (void)pool.acquire(3);  // evicts 0, the least recently acquired
  EXPECT_FALSE(pool.is_warm(0));
  EXPECT_EQ(pool.warm_ids_lru(), (std::vector<std::size_t>{1, 2, 3}));

  (void)pool.acquire(1);  // hit: moves 1 to most-recent
  (void)pool.acquire(4);  // evicts 2
  EXPECT_FALSE(pool.is_warm(2));
  EXPECT_EQ(pool.warm_ids_lru(), (std::vector<std::size_t>{3, 1, 4}));

  const fl::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.hydrations, 5u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.dehydrations, 2u);
}

TEST(ClientPool, PinnedClientsAreNeverEvicted) {
  auto fed = virtual_federation(1, /*warm=*/2, /*population=*/8);
  fl::ClientPool& pool = fed->pool;
  const std::vector<std::size_t> cohort = {0, 1, 2};  // exceeds the capacity
  pool.pin_cohort(cohort);
  for (std::size_t id = 3; id < 8; ++id) (void)pool.acquire(id);
  for (std::size_t id : cohort) {
    EXPECT_TRUE(pool.is_warm(id)) << "pinned client " << id << " was evicted";
  }
  // The unpinned overflow was evicted down to the configured bound.
  EXPECT_LE(pool.warm_count(), cohort.size() + 2);
}

TEST(ClientPool, ClientIdentityMatchesSpec) {
  auto fed = virtual_federation(1, kLargeWarm);
  for (std::size_t id = 0; id < fed->num_clients(); ++id) {
    const fl::Client& client = fed->client(id);
    EXPECT_EQ(client.id, static_cast<comm::NodeId>(id));
    EXPECT_EQ(client.train_data.size(), 40u);
    EXPECT_EQ(client.test_data.size(), 24u);
    EXPECT_EQ(client.model.input_dim(), fed->input_dim);
  }
}

// --------------------------------------------- dehydration round-trips -------

TEST(ClientPool, DehydrateHydrateRoundTripsBitwise) {
  auto fed = virtual_federation(1, /*warm=*/2, /*population=*/8);
  fl::ClientPool& pool = fed->pool;

  fl::Client& before = pool.acquire(3);
  fl::TrainOptions opts;
  opts.epochs = 1;
  before.train_local(opts);  // blob must capture trained, not fresh, state

  const tensor::Tensor weights_before = before.model.flat_weights();
  const tensor::Tensor shard_before = before.train_data.features;
  const std::vector<int> labels_before = before.train_data.labels;
  tensor::Rng rng_probe = before.rng;  // copy: probing does not disturb state
  std::vector<std::uint64_t> draws_before;
  for (int i = 0; i < 5; ++i) draws_before.push_back(rng_probe.uniform_index(1u << 30));

  // Force 3 out through the LRU, then bring it back.
  for (std::size_t id : {4u, 5u, 6u, 7u}) (void)pool.acquire(id);
  ASSERT_FALSE(pool.is_warm(3));
  fl::Client& after = pool.acquire(3);

  EXPECT_EQ(tensor::max_abs_difference(after.model.flat_weights(),
                                       weights_before),
            0.0f);
  const tensor::Tensor after_flat = after.model.flat_weights();
  ASSERT_EQ(after_flat.numel(), weights_before.numel());
  for (std::size_t i = 0; i < weights_before.numel(); ++i) {
    ASSERT_EQ(float_bits(after_flat.data()[i]), float_bits(weights_before.data()[i]))
        << "weight " << i;
  }
  EXPECT_EQ(tensor::max_abs_difference(after.train_data.features, shard_before),
            0.0f);
  EXPECT_EQ(after.train_data.labels, labels_before);
  tensor::Rng rng_after = after.rng;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rng_after.uniform_index(1u << 30), draws_before[i]) << "draw " << i;
  }
}

// --------------------------------------- eviction is semantically invisible --

void expect_eviction_invisible(const std::string& name) {
  constexpr std::size_t kRounds = 3;
  fl::PoolRoundStats tiny_totals;
  const fl::RunHistory tiny = run_virtual(name, 1, kTinyWarm, kRounds,
                                          &tiny_totals);
  const fl::RunHistory large = run_virtual(name, 1, kLargeWarm, kRounds);
  // The tiny cache actually churned — otherwise this test proves nothing.
  EXPECT_GT(tiny_totals.evictions, 0u) << name;
  expect_same_history(tiny, large, name + " tiny-vs-large warm",
                      /*compare_pool=*/false);

  // Thread-count invariance on the churning configuration, pool counters
  // included (the pipeline pins and acquires serially in id order, so even
  // eviction order is lane-count independent).
  const fl::RunHistory parallel = run_virtual(name, 4, kTinyWarm, kRounds);
  expect_same_history(tiny, parallel, name + " 1-vs-4 threads",
                      /*compare_pool=*/true);
}

TEST(PoolEquivalence, FedAvg) { expect_eviction_invisible("FedAvg"); }
TEST(PoolEquivalence, FedProx) { expect_eviction_invisible("FedProx"); }
TEST(PoolEquivalence, FedMd) { expect_eviction_invisible("FedMD"); }
TEST(PoolEquivalence, DsFl) { expect_eviction_invisible("DS-FL"); }
TEST(PoolEquivalence, FedDf) { expect_eviction_invisible("FedDF"); }
TEST(PoolEquivalence, FedEt) { expect_eviction_invisible("FedET"); }
TEST(PoolEquivalence, FedProto) { expect_eviction_invisible("FedProto"); }
TEST(PoolEquivalence, FedPkd) { expect_eviction_invisible("FedPKD"); }

// ------------------------------------- free-rider cache vs dehydration -------

TEST(PoolAttacks, FreeRiderReplayCacheSurvivesDehydration) {
  // Full participation (population == cohort) so the free-rider provably
  // fires every round after priming; a mid-run forced dehydration of the
  // whole warm set then must not change anything — the replay cache lives
  // at federation level, not inside the Client.
  constexpr std::size_t kPop = 6;
  const auto build = [&] {
    auto fed = virtual_federation(1, /*warm=*/2, kPop, /*cohort=*/kPop);
    fed->set_attack_plan(pool_attack_plan());
    return fed;
  };

  auto straight_fed = build();
  auto straight = make_algorithm("FedAvg", *straight_fed);
  fl::RunOptions four;
  four.rounds = 4;
  const fl::RunHistory want = fl::run_federation(*straight, *straight_fed, four);
  std::size_t attacks = 0;
  for (const fl::RoundMetrics& r : want.rounds) {
    if (r.fault_stats) attacks += r.fault_stats->attacks_injected;
  }
  ASSERT_GE(attacks, 3u) << "free-rider + sign-flip never fired";

  auto churn_fed = build();
  auto churn = make_algorithm("FedAvg", *churn_fed);
  fl::RunOptions first_half = four;
  first_half.rounds = 2;
  const fl::RunHistory head = fl::run_federation(*churn, *churn_fed, first_half);
  // Force every client — the free-rider included — through a full
  // dehydrate -> rehydrate cycle: save_state serializes the warm set as
  // blobs, load_state drops the warm set and rebuilds it from those blobs.
  const fl::PoolStats before_cycle = churn_fed->pool.stats();
  std::vector<std::byte> state;
  churn_fed->pool.save_state(state);
  std::size_t offset = 0;
  churn_fed->pool.load_state(state, offset);
  const fl::PoolStats after_cycle = churn_fed->pool.stats();
  EXPECT_GE(after_cycle.hydrations, before_cycle.hydrations + kPop);
  fl::RunOptions second_half = four;
  second_half.start_round = 2;
  const fl::RunHistory tail = fl::run_federation(*churn, *churn_fed, second_half);

  fl::RunHistory got = head;
  got.rounds.insert(got.rounds.end(), tail.rounds.begin(), tail.rounds.end());
  expect_same_history(want, got, "free-rider across dehydration",
                      /*compare_pool=*/false);
}

// --------------------------------------------------- checkpoint v4 resume ----

/// Cuts a 6-round virtual run at round 3 and resumes it from the checkpoint
/// at `threads` lanes. The stitched history must equal the straight serial
/// run bitwise, every resumed round must report the straight run's pool
/// counters, and every client's final weights must match.
void expect_virtual_bitwise_resume(const std::string& name,
                                   std::size_t threads = 1,
                                   std::size_t warm = kTinyWarm,
                                   fl::RoundMode mode = fl::RoundMode::kSync) {
  constexpr std::size_t kTotalRounds = 6;
  constexpr std::size_t kCut = 3;
  const auto build = [&](std::size_t lanes) {
    auto fed = virtual_federation(lanes, warm);
    const comm::FaultPlan plan = pool_fault_plan();
    fed->channel.set_fault_plan(plan);
    fed->set_attack_plan(pool_attack_plan());
    fed->policy.mode = mode;
    if (mode == fl::RoundMode::kSemiSync) {
      fed->policy.upload_deadline_ms = 30.0;
    } else if (mode == fl::RoundMode::kAsync) {
      fed->policy.wake_interval_ms = 20.0;
      fed->policy.buffer_k = 2;
      fed->policy.staleness_beta = 0.5;
    }
    return fed;
  };
  fl::RunOptions base;
  base.rounds = kTotalRounds;

  auto straight_fed = build(1);
  auto straight = make_algorithm(name, *straight_fed);
  const fl::RunHistory want = fl::run_federation(*straight, *straight_fed, base);

  const ScopedPath ckpt("fedpkd_test_pool_" + name + ".ckpt");
  auto first_fed = build(threads);
  auto first = make_algorithm(name, *first_fed);
  fl::RunOptions until_cut = base;
  until_cut.rounds = kCut;
  until_cut.checkpoint_every = kCut;
  until_cut.checkpoint_path = ckpt.path;
  fl::run_federation(*first, *first_fed, until_cut);
  ASSERT_TRUE(std::filesystem::exists(ckpt.path)) << name;

  auto resumed_fed = build(threads);
  auto resumed = make_algorithm(name, *resumed_fed);
  const fl::FederationResume state =
      fl::load_federation_checkpoint(ckpt.path, *resumed, *resumed_fed);
  ASSERT_EQ(state.next_round, kCut) << name;
  fl::RunOptions rest = base;
  rest.start_round = state.next_round;
  const fl::RunHistory tail = fl::run_federation(*resumed, *resumed_fed, rest);
  exec::set_num_threads(1);

  std::vector<fl::RoundMetrics> got = state.history.rounds;
  got.insert(got.end(), tail.rounds.begin(), tail.rounds.end());
  fl::RunHistory stitched;
  stitched.rounds = got;
  expect_same_history(want, stitched, name + " virtual resume",
                      /*compare_pool=*/false);

  // Pool counters are not serialized, so they exist only from the first
  // resumed round on; there they must equal the uninterrupted run's.
  ASSERT_EQ(tail.rounds.size(), kTotalRounds - kCut) << name;
  for (std::size_t t = kCut; t < kTotalRounds; ++t) {
    const std::string where = name + " resumed round " + std::to_string(t);
    const auto& x = want.rounds[t].pool_stats;
    const auto& y = tail.rounds[t - kCut].pool_stats;
    ASSERT_TRUE(x.has_value() && y.has_value()) << where;
    EXPECT_EQ(x->hits, y->hits) << where;
    EXPECT_EQ(x->misses, y->misses) << where;
    EXPECT_EQ(x->hydrations, y->hydrations) << where;
    EXPECT_EQ(x->evictions, y->evictions) << where;
    EXPECT_EQ(x->warm_clients, y->warm_clients) << where;
  }

  // Every touched client's model must match, including ones that only exist
  // as dehydration blobs right now (acquire rehydrates them for comparison).
  for (std::size_t c = 0; c < straight_fed->num_clients(); ++c) {
    EXPECT_EQ(tensor::max_abs_difference(
                  straight_fed->client(c).model.flat_weights(),
                  resumed_fed->client(c).model.flat_weights()),
              0.0f)
        << name << " client " << c;
  }
}

TEST(PoolCheckpoint, FedAvgVirtualResumesBitwise) {
  expect_virtual_bitwise_resume("FedAvg");
}

TEST(PoolCheckpoint, FedPkdVirtualResumesBitwise) {
  expect_virtual_bitwise_resume("FedPKD");
}

// A cohort of 4 over a warm capacity of 2: pins legally keep the warm set
// above the capacity, and the checkpoint records all of it.
constexpr std::size_t kBelowCohortWarm = 2;

TEST(PoolCheckpoint, OverCapacityWarmSetResumesBitwise) {
  expect_virtual_bitwise_resume("FedAvg", 1, kBelowCohortWarm);
}

TEST(PoolCheckpoint, OverCapacityWarmSetResumesBitwiseInEveryModeAtFourLanes) {
  for (fl::RoundMode mode : {fl::RoundMode::kSync, fl::RoundMode::kSemiSync,
                             fl::RoundMode::kAsync}) {
    SCOPED_TRACE(fl::to_string(mode));
    expect_virtual_bitwise_resume("FedAvg", 4, kBelowCohortWarm, mode);
  }
}

TEST(PoolCheckpoint, OverCapacityStateReencodesByteIdentical) {
  auto fed = virtual_federation(1, kBelowCohortWarm);
  auto algo = make_algorithm("FedAvg", *fed);
  fl::RunOptions options;
  options.rounds = 2;
  fl::run_federation(*algo, *fed, options);
  ASSERT_GT(fed->pool.warm_count(), kBelowCohortWarm);

  std::vector<std::byte> saved;
  fed->pool.save_state(saved);
  auto restored = virtual_federation(1, kBelowCohortWarm);
  std::size_t offset = 0;
  restored->pool.load_state(saved, offset);
  EXPECT_EQ(offset, saved.size());
  EXPECT_EQ(restored->pool.warm_ids_lru(), fed->pool.warm_ids_lru());
  std::vector<std::byte> resaved;
  restored->pool.save_state(resaved);
  EXPECT_EQ(resaved, saved);
}

TEST(PoolCheckpoint, RejectsModeAndPopulationMismatch) {
  // A resident-mode checkpoint must not load into a virtual federation of
  // the same size, and a virtual checkpoint must not load into a different
  // population.
  const ScopedPath ckpt("fedpkd_test_pool_mismatch.ckpt");
  {
    data::SyntheticVision task(data::SyntheticVisionConfig::synth10(901));
    const auto bundle = task.make_bundle(320, 160, 120);
    fl::FederationConfig config;
    config.num_clients = kPopulation;
    config.client_archs = {"resmlp11"};
    config.local_test_per_client = 24;
    config.seed = 902;
    auto resident = fl::build_federation(
        bundle, fl::PartitionSpec::dirichlet(0.3), config);
    fl::FedAvg algo(*resident, {.local_epochs = 1, .proximal_mu = {}});
    fl::RunOptions opts;
    opts.rounds = 1;
    opts.checkpoint_every = 1;
    opts.checkpoint_path = ckpt.path;
    fl::run_federation(algo, *resident, opts);
  }
  {
    auto virt = virtual_federation(1, kTinyWarm);  // same population, virtual
    fl::FedAvg algo(*virt, {.local_epochs = 1, .proximal_mu = {}});
    EXPECT_THROW(fl::load_federation_checkpoint(ckpt.path, algo, *virt),
                 std::runtime_error);
  }

  const ScopedPath vckpt("fedpkd_test_pool_popmismatch.ckpt");
  {
    auto virt = virtual_federation(1, kTinyWarm);
    fl::FedAvg algo(*virt, {.local_epochs = 1, .proximal_mu = {}});
    fl::RunOptions opts;
    opts.rounds = 1;
    opts.checkpoint_every = 1;
    opts.checkpoint_path = vckpt.path;
    fl::run_federation(algo, *virt, opts);
  }
  {
    auto smaller = virtual_federation(1, kTinyWarm, kPopulation - 2);
    fl::FedAvg algo(*smaller, {.local_epochs = 1, .proximal_mu = {}});
    EXPECT_THROW(fl::load_federation_checkpoint(vckpt.path, algo, *smaller),
                 std::runtime_error);
  }
}

// ------------------------------------------------- hierarchical edges --------

TEST(EdgeAggregation, PartitionCoversContiguously) {
  using Range = std::pair<std::size_t, std::size_t>;
  EXPECT_TRUE(robust::edge_partition(0, 3).empty());
  EXPECT_EQ(robust::edge_partition(5, 1),
            (std::vector<Range>{{0, 5}}));
  EXPECT_EQ(robust::edge_partition(7, 3),
            (std::vector<Range>{{0, 3}, {3, 5}, {5, 7}}));
  EXPECT_EQ(robust::edge_partition(4, 4),
            (std::vector<Range>{{0, 1}, {1, 2}, {2, 3}, {3, 4}}));
  // More groups than members clamps to one member per group.
  EXPECT_EQ(robust::edge_partition(2, 5),
            (std::vector<Range>{{0, 1}, {1, 2}}));
}

std::unique_ptr<fl::Federation> edge_federation(std::size_t edges,
                                                bool heterogeneous = false) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(901));
  const auto bundle = task.make_bundle(320, 160, 120);
  fl::FederationConfig config;
  config.num_clients = 6;
  config.client_archs =
      heterogeneous ? std::vector<std::string>{"resmlp11", "resmlp20"}
                    : std::vector<std::string>{"resmlp11"};
  config.local_test_per_client = 24;
  config.seed = 902;
  config.edge_aggregators = edges;
  return fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3),
                              config);
}

fl::RunHistory run_edges(const std::string& name, std::size_t edges,
                         bool heterogeneous = false) {
  auto fed = edge_federation(edges, heterogeneous);
  auto algo = make_algorithm(name, *fed);
  fl::RunOptions options;
  options.rounds = 2;
  return fl::run_federation(*algo, *fed, options);
}

TEST(EdgeAggregation, DegenerateTopologiesAreBitwiseFlat) {
  // 0, 1, and >= num_contributions edge groups all keep the flat single-tier
  // path, bit for bit.
  const fl::RunHistory flat = run_edges("FedAvg", 0);
  expect_same_history(flat, run_edges("FedAvg", 1), "edges=1", false);
  expect_same_history(flat, run_edges("FedAvg", 6), "edges=6", false);
  expect_same_history(flat, run_edges("FedAvg", 99), "edges=99", false);
}

TEST(EdgeAggregation, TwoTierWeightAggregationStaysClose) {
  // Two-tier FedAvg computes a weighted mean of per-group weighted means —
  // mathematically the flat weighted mean, numerically a different rounding.
  // The result must stay a valid model in the flat run's accuracy
  // neighborhood.
  const fl::RunHistory flat = run_edges("FedAvg", 0);
  const fl::RunHistory tiered = run_edges("FedAvg", 2);
  ASSERT_EQ(flat.rounds.size(), tiered.rounds.size());
  for (std::size_t t = 0; t < flat.rounds.size(); ++t) {
    ASSERT_TRUE(tiered.rounds[t].server_accuracy.has_value());
    EXPECT_NEAR(*tiered.rounds[t].server_accuracy,
                *flat.rounds[t].server_accuracy, 0.25)
        << "round " << t;
    // Uplink traffic is identical: edge combining happens server-side,
    // after the metered wire.
    EXPECT_EQ(flat.rounds[t].cumulative_bytes,
              tiered.rounds[t].cumulative_bytes)
        << "round " << t;
  }
}

TEST(EdgeAggregation, TwoTierHandlesAllPayloadKinds) {
  // Logit payloads (DS-FL), prototype payloads (FedProto), and the
  // heterogeneous multi-part FedPKD bundle all survive two-tier combining.
  for (const char* name : {"DS-FL", "FedProto", "FedPKD"}) {
    const fl::RunHistory history = run_edges(name, 2, name[0] == 'F');
    for (const fl::RoundMetrics& r : history.rounds) {
      for (float acc : r.client_accuracy) {
        EXPECT_GE(acc, 0.0f) << name;
        EXPECT_LE(acc, 1.0f) << name;
      }
    }
  }
}

TEST(EdgeAggregation, VirtualFederationSupportsEdges) {
  auto fed = virtual_federation(1, kLargeWarm, /*population=*/16, /*cohort=*/8);
  fed->edge_aggregators = 2;
  auto algo = make_algorithm("FedAvg", *fed);
  fl::RunOptions options;
  options.rounds = 2;
  const fl::RunHistory history = fl::run_federation(*algo, *fed, options);
  ASSERT_EQ(history.rounds.size(), 2u);
  for (const fl::RoundMetrics& r : history.rounds) {
    ASSERT_TRUE(r.server_accuracy.has_value());
    EXPECT_GE(*r.server_accuracy, 0.0f);
    EXPECT_LE(*r.server_accuracy, 1.0f);
  }
}

// ------------------------------------------------------ metrics plumbing -----

TEST(PoolMetrics, RoundsCarryPoolCountersInVirtualMode) {
  auto fed = virtual_federation(1, kTinyWarm);
  auto algo = make_algorithm("FedAvg", *fed);
  fl::RunOptions options;
  options.rounds = 2;
  const fl::RunHistory history = fl::run_federation(*algo, *fed, options);
  ASSERT_EQ(history.rounds.size(), 2u);
  for (const fl::RoundMetrics& r : history.rounds) {
    ASSERT_TRUE(r.pool_stats.has_value());
    EXPECT_GT(r.pool_stats->warm_clients, 0u);
  }
  // Round 0 is charged the cohort pin and the constructor's reference
  // client: at least cohort-many hydrations.
  EXPECT_GE(history.rounds[0].pool_stats->hydrations, kCohort);
}

TEST(PoolMetrics, ResidentModeReportsNoPoolCounters) {
  auto fed = edge_federation(0);
  auto algo = make_algorithm("FedAvg", *fed);
  fl::RunOptions options;
  options.rounds = 1;
  const fl::RunHistory history = fl::run_federation(*algo, *fed, options);
  ASSERT_EQ(history.rounds.size(), 1u);
  EXPECT_FALSE(history.rounds[0].pool_stats.has_value());
}

// ------------------------------------------------ hydration equivalence ------

std::uint64_t fnv1a(const std::vector<std::byte>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Pool state after one step of the seeded hydration script.
struct HydrationStep {
  std::vector<std::size_t> lru;
  std::size_t hits, misses, hydrations, dehydrations, evictions;
  std::uint64_t state_hash;  // FNV-1a of save_state
};

/// A seeded pin_cohort script on population 10 with warm capacity 3:
/// overlapping cohorts, trained members (so blobs carry trained state), a
/// cohort above the capacity, a pin with no cold member, duplicate ids, and
/// an unpinned acquire through the single-id miss path.
std::vector<HydrationStep> run_hydration_script(std::size_t threads) {
  auto fed = virtual_federation(threads, /*warm=*/3, /*population=*/10);
  fl::ClientPool& pool = fed->pool;
  fl::TrainOptions opts;
  opts.epochs = 1;
  std::vector<HydrationStep> steps;
  const auto record = [&] {
    const fl::PoolStats s = pool.stats();
    std::vector<std::byte> state;
    pool.save_state(state);
    steps.push_back({pool.warm_ids_lru(), s.hits, s.misses, s.hydrations,
                     s.dehydrations, s.evictions, fnv1a(state)});
  };
  const auto pin = [&](std::vector<std::size_t> ids,
                       std::vector<std::size_t> train) {
    pool.pin_cohort(ids);
    for (std::size_t id : train) pool.acquire(id).train_local(opts);
    record();
  };
  pin({0, 1, 2}, {0, 1});           // all cold
  pin({1, 3, 4}, {3, 4});           // overlap; evicts the trained 0
  pin({0, 2, 5, 6, 7}, {5, 0});     // above capacity; 0 back from its blob
  pin({0, 2, 5}, {});               // no cold member: nothing evicted
  pin({6, 6, 8, 2}, {8});           // duplicates
  pin({1, 3, 9}, {9});              // trained blobs rehydrate
  (void)pool.acquire(4);            // unpinned single-id miss
  record();
  exec::set_num_threads(1);
  return steps;
}

TEST(PoolHydration, GoldenScriptAtOneAndFourLanes) {
  // Recorded with the serial one-acquire-per-id hydration loop that the
  // lane-parallel pin (victims spilled and cold members built on the lanes,
  // ordered install) replaced.
  const std::vector<HydrationStep> want = {
      {{2, 0, 1}, 2, 3, 3, 0, 0, 0x644fdead08f3570aull},
      {{1, 3, 4}, 5, 5, 5, 2, 2, 0xbbb282d40cf85bcfull},
      {{2, 6, 7, 5, 0}, 7, 10, 10, 5, 5, 0xc03d79756634e625ull},
      {{6, 7, 0, 2, 5}, 10, 10, 10, 5, 5, 0x76e0be11ecb01525ull},
      {{6, 2, 8}, 14, 11, 11, 8, 8, 0xa50964a561c6f86full},
      {{1, 3, 9}, 15, 14, 14, 11, 11, 0x7378ec78f5a4205eull},
      {{1, 3, 9, 4}, 15, 15, 15, 11, 11, 0x45cad8217af4fe45ull},
  };
  for (std::size_t threads : {1u, 4u}) {
    const std::vector<HydrationStep> got = run_hydration_script(threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const std::string where =
          "step " + std::to_string(i) + " at " + std::to_string(threads) +
          " lanes";
      EXPECT_EQ(got[i].lru, want[i].lru) << where;
      EXPECT_EQ(got[i].hits, want[i].hits) << where;
      EXPECT_EQ(got[i].misses, want[i].misses) << where;
      EXPECT_EQ(got[i].hydrations, want[i].hydrations) << where;
      EXPECT_EQ(got[i].dehydrations, want[i].dehydrations) << where;
      EXPECT_EQ(got[i].evictions, want[i].evictions) << where;
      EXPECT_EQ(got[i].state_hash, want[i].state_hash) << where;
    }
  }
}

TEST(PoolHydration, BadIdLeavesThePoolUntouched) {
  auto fed = virtual_federation(1, /*warm=*/2, /*population=*/8);
  fl::ClientPool& pool = fed->pool;
  const std::vector<std::size_t> cohort = {0, 1, 2};  // above the capacity
  pool.pin_cohort(cohort);
  const std::vector<std::size_t> lru_before = pool.warm_ids_lru();
  const fl::PoolStats stats_before = pool.stats();

  const std::vector<std::size_t> bad = {3, 4, 99};
  EXPECT_THROW(pool.pin_cohort(bad), std::out_of_range);
  EXPECT_EQ(pool.warm_ids_lru(), lru_before);
  const fl::PoolStats stats_after = pool.stats();
  EXPECT_EQ(stats_after.hits, stats_before.hits);
  EXPECT_EQ(stats_after.misses, stats_before.misses);
  EXPECT_EQ(stats_after.hydrations, stats_before.hydrations);
  EXPECT_EQ(stats_after.evictions, stats_before.evictions);
  EXPECT_EQ(stats_after.hydration_seconds, stats_before.hydration_seconds);

  // The old pins still hold: with {0, 1, 2} pinned the cap is 3, so two
  // unpinned acquires evict only the first of them.
  (void)pool.acquire(4);
  (void)pool.acquire(5);
  EXPECT_EQ(pool.warm_ids_lru(), (std::vector<std::size_t>{0, 1, 2, 5}));
}

/// FedAvg on a population where nearly every cohort member is fresh, with
/// half of all frames dropped and no retries: the clients whose broadcast is
/// lost train from their initial weights, which the pool's deferred builder
/// draws on that first read. Digest of every round's accuracies and bytes,
/// then of the final pool state (which serializes the warm clients).
std::uint64_t lost_broadcast_digest(std::size_t threads,
                                    std::size_t* bundles_lost) {
  auto fed = virtual_federation(threads, /*warm=*/4, /*population=*/200);
  comm::FaultPlan plan;
  plan.drop_probability = 0.5;
  plan.max_retries = 0;
  plan.seed = 2525;
  fed->channel.set_fault_plan(plan);
  auto algo = make_algorithm("FedAvg", *fed);
  fl::RunOptions options;
  options.rounds = 4;
  const fl::RunHistory history = fl::run_federation(*algo, *fed, options);
  exec::set_num_threads(1);
  std::vector<std::byte> bytes;
  const auto put = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(std::byte(v >> (8 * i)));
  };
  *bundles_lost = 0;
  for (const fl::RoundMetrics& r : history.rounds) {
    put(r.server_accuracy ? float_bits(*r.server_accuracy) : 0u);
    for (float acc : r.client_accuracy) put(float_bits(acc));
    put(r.cumulative_bytes);
    if (r.fault_stats) *bundles_lost += r.fault_stats->bundles_lost;
  }
  fed->pool.save_state(bytes);
  return fnv1a(bytes);
}

TEST(PoolHydration, LostBroadcastsTrainFromTheEagerInitialWeights) {
  // Recorded with clients whose weights were drawn when they were built.
  constexpr std::uint64_t kEagerDigest = 0x20fce07d59f10b29ull;
  for (std::size_t threads : {1u, 4u}) {
    std::size_t lost = 0;
    EXPECT_EQ(lost_broadcast_digest(threads, &lost), kEagerDigest)
        << threads << " lanes";
    EXPECT_GT(lost, 0u);
  }
}

// ------------------------------------------------------------ concurrency ----

TEST(PoolConcurrency, ConcurrentHydrateAndEvict) {
  auto fed = virtual_federation(1, /*warm=*/6, /*population=*/32, /*cohort=*/4);
  fl::ClientPool& pool = fed->pool;
  const std::vector<std::size_t> cohort = {0, 1, 2, 3};
  pool.pin_cohort(cohort);

  // Pinned acquires may dereference (their references are stable); unpinned
  // acquires race with eviction, so those threads never touch the result —
  // exactly the contract the round pipeline relies on.
  std::atomic<std::size_t> bad_ids{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&pool, &bad_ids, &cohort, t] {
      for (std::size_t i = 0; i < 300; ++i) {
        const std::size_t id = cohort[(i + t) % cohort.size()];
        if (pool.acquire(id).id != static_cast<comm::NodeId>(id)) ++bad_ids;
      }
    });
  }
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&pool, t] {
      for (std::size_t i = 0; i < 300; ++i) {
        (void)pool.acquire(4 + (i * 7 + t * 13) % 28);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(bad_ids.load(), 0u);
  EXPECT_LE(pool.warm_count(), 6u);
  for (std::size_t id : cohort) EXPECT_TRUE(pool.is_warm(id));
  const fl::PoolStats stats = pool.stats();
  EXPECT_GT(stats.hydrations, 28u);  // every unpinned id hydrated at least once
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 4u + 2u * 300u + 2u * 300u);
}

TEST(PoolConcurrency, PinOnLanesAlongsideConcurrentAcquires) {
  // pin_cohort builds and dehydrates on 4 exec lanes while holding the pool
  // mutex; two other threads hydrate and evict unpinned ids meanwhile.
  auto fed = virtual_federation(4, /*warm=*/6, /*population=*/32, /*cohort=*/4);
  fl::ClientPool& pool = fed->pool;
  std::atomic<std::size_t> bad_ids{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&pool, &bad_ids] {
    for (std::size_t round = 0; round < 40; ++round) {
      std::vector<std::size_t> cohort;
      for (std::size_t k = 0; k < 4; ++k) {
        cohort.push_back((round * 3 + k * 5) % 16);
      }
      std::sort(cohort.begin(), cohort.end());
      pool.pin_cohort(cohort);
      for (std::size_t id : cohort) {
        if (pool.acquire(id).id != static_cast<comm::NodeId>(id)) ++bad_ids;
      }
    }
  });
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&pool, t] {
      for (std::size_t i = 0; i < 200; ++i) {
        (void)pool.acquire(16 + (i * 7 + t * 13) % 16);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  exec::set_num_threads(1);

  EXPECT_EQ(bad_ids.load(), 0u);
  EXPECT_LE(pool.warm_count(), 6u);
  const fl::PoolStats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 40u * 8u + 2u * 200u);
}

// ------------------------------------------------------------ spill file ----

std::size_t spill_size(const fl::ClientPool& pool) {
  struct stat st {};
  EXPECT_EQ(::fstat(pool.spill_fd(), &st), 0);
  return static_cast<std::size_t>(st.st_size);
}

/// Bytes one resmlp11 client occupies in the spill file.
std::size_t sealed_blob_size(fl::ClientPool& pool, std::size_t warm_id) {
  std::vector<std::byte> blob;
  pool.dehydrate(pool.acquire(warm_id), blob);
  return blob.size() + fl::durable::kFooterSize;
}

/// 200 FedAvg rounds, run one at a time so every round's evictions can be
/// read off the warm set: cohorts of 4 from 40 clients under a warm cap of 6
/// evict most clients many times over. Checks the spill file's size after
/// the run and after each of two load_state calls, then after loading the
/// smaller state saved at round 10; returns the final pool state.
std::vector<std::byte> expect_one_extent_per_evicted_client(
    std::size_t threads) {
  auto fed = virtual_federation(threads, /*warm=*/6, /*population=*/40);
  auto algo = make_algorithm("FedAvg", *fed);
  fl::ClientPool& pool = fed->pool;
  std::set<std::size_t> evicted;
  std::size_t evictions = 0;
  std::vector<std::size_t> warm = pool.warm_ids_lru();
  std::vector<std::byte> early;
  std::size_t early_touched = 0;
  for (std::size_t round = 0; round < 200; ++round) {
    fl::RunOptions one;
    one.start_round = round;
    one.rounds = round + 1;
    fl::run_federation(*algo, *fed, one);
    for (std::size_t id : warm) {
      if (!pool.is_warm(id)) {
        evicted.insert(id);
        ++evictions;
      }
    }
    warm = pool.warm_ids_lru();
    if (round == 10) {
      pool.save_state(early);
      std::set<std::size_t> touched = evicted;
      touched.insert(warm.begin(), warm.end());
      early_touched = touched.size();
    }
  }
  EXPECT_EQ(evictions, pool.stats().evictions) << "an eviction went unseen";
  EXPECT_GT(evictions, 2 * evicted.size()) << "too few re-evictions";
  const std::size_t sealed = sealed_blob_size(pool, warm.back());
  EXPECT_EQ(spill_size(pool), evicted.size() * sealed);

  // load_state truncates the file, then gives every touched client (the
  // evicted ones and the warm ones) one extent; a second load rewrites it.
  std::set<std::size_t> touched = evicted;
  touched.insert(warm.begin(), warm.end());
  std::vector<std::byte> state;
  pool.save_state(state);
  for (int load = 0; load < 2; ++load) {
    std::size_t offset = 0;
    pool.load_state(state, offset);
    EXPECT_EQ(spill_size(pool), touched.size() * sealed) << "load " << load;
  }
  std::vector<std::byte> resaved;
  pool.save_state(resaved);
  EXPECT_EQ(resaved, state);
  // A smaller state shrinks the file.
  EXPECT_LT(early_touched, touched.size());
  std::size_t offset = 0;
  pool.load_state(early, offset);
  EXPECT_EQ(spill_size(pool), early_touched * sealed);
  exec::set_num_threads(1);
  return state;
}

TEST(PoolSpill, OneExtentPerDistinctEvictedClientAtOneAndFourLanes) {
  const std::vector<std::byte> serial = expect_one_extent_per_evicted_client(1);
  EXPECT_EQ(expect_one_extent_per_evicted_client(4), serial);
}

TEST(PoolSpill, DamagedBlobFailsItsClientsHydration) {
  auto fed = virtual_federation(1, /*warm=*/2, /*population=*/8);
  fl::ClientPool& pool = fed->pool;
  fl::TrainOptions opts;
  opts.epochs = 1;
  fl::Client& trained = pool.acquire(3);
  trained.train_local(opts);
  const tensor::Tensor weights = trained.model.flat_weights();
  (void)pool.acquire(4);
  (void)pool.acquire(5);  // evicts 3 into the file's first extent
  ASSERT_FALSE(pool.is_warm(3));
  ASSERT_GE(pool.spill_fd(), 0);

  // Flip one byte inside client 3's weights.
  constexpr off_t kAt = 200;
  std::byte b{};
  ASSERT_EQ(::pread(pool.spill_fd(), &b, 1, kAt), 1);
  const std::byte flipped = b ^ std::byte{0x10};
  ASSERT_EQ(::pwrite(pool.spill_fd(), &flipped, 1, kAt), 1);

  const fl::PoolStats before = pool.stats();
  try {
    (void)pool.acquire(3);
    ADD_FAILURE() << "a damaged blob hydrated";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("client 3:"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(pool.is_warm(3));
  EXPECT_EQ(pool.stats().hydrations, before.hydrations);

  // Nothing else was harmed: with the byte restored, 3 comes back trained.
  ASSERT_EQ(::pwrite(pool.spill_fd(), &b, 1, kAt), 1);
  EXPECT_EQ(tensor::max_abs_difference(pool.acquire(3).model.flat_weights(),
                                       weights),
            0.0f);
}

TEST(PoolSpill, AFailedWriteKeepsItsVictimWarm) {
  auto fed = virtual_federation(1, /*warm=*/2, /*population=*/8);
  fl::ClientPool& pool = fed->pool;
  (void)pool.acquire(0);
  const tensor::Tensor weights_1 = pool.acquire(1).model.flat_weights();
  (void)pool.acquire(2);  // evicts 0 into the file's first extent
  const std::size_t sealed = spill_size(pool);
  ASSERT_GT(sealed, 0u);

  // A file-size limit leaves room for exactly one more blob: pinning two
  // cold clients evicts 1 (written) and 2 (fails with EFBIG).
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit limit = old_limit;
  limit.rlim_cur = static_cast<rlim_t>(2 * sealed);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limit), 0);
  const std::vector<std::size_t> cohort = {3, 4};
  try {
    pool.pin_cohort(cohort);
    ADD_FAILURE() << "the write past the file-size limit succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("client 2:"), std::string::npos)
        << e.what();
  }
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_EQ(pool.warm_ids_lru(), (std::vector<std::size_t>{2}));
  EXPECT_EQ(pool.stats().evictions, 2u);
  EXPECT_EQ(spill_size(pool), 2 * sealed);
  EXPECT_EQ(tensor::max_abs_difference(pool.acquire(1).model.flat_weights(),
                                       weights_1),
            0.0f);
  pool.pin_cohort(cohort);
  EXPECT_TRUE(pool.is_warm(3) && pool.is_warm(4));
}

/// Sets an environment variable for one scope, then restores it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(PoolSpill, MissingTempDirFailsTheFirstEvictionAndKeepsTheVictims) {
  auto fed = virtual_federation(1, /*warm=*/2, /*population=*/8);
  fl::ClientPool& pool = fed->pool;
  (void)pool.acquire(0);
  (void)pool.acquire(1);
  std::vector<std::byte> state;
  pool.save_state(state);

  const std::string missing =
      (std::filesystem::temp_directory_path() / "fedpkd-no-such-dir").string();
  ASSERT_FALSE(std::filesystem::exists(missing));
  {
    const ScopedEnv tmpdir("TMPDIR", missing);
    try {
      (void)pool.acquire(2);  // must evict 0 first
      ADD_FAILURE() << "the eviction succeeded without a spill directory";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(missing), std::string::npos) << what;
      EXPECT_NE(what.find(std::strerror(ENOENT)), std::string::npos) << what;
      EXPECT_NE(what.find("errno " + std::to_string(ENOENT)),
                std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(pool.spill_fd(), -1);
  EXPECT_EQ(pool.warm_ids_lru(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(pool.stats().evictions, 0u);
  std::vector<std::byte> after;
  pool.save_state(after);
  EXPECT_EQ(after, state);

  // With the directory back, the same acquire evicts 0 into a new file.
  (void)pool.acquire(2);
  EXPECT_EQ(pool.warm_ids_lru(), (std::vector<std::size_t>{1, 2}));
  EXPECT_GE(pool.spill_fd(), 0);
}

}  // namespace
}  // namespace fedpkd
