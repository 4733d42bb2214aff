#pragma once

#include <cstddef>
#include <filesystem>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fedpkd/comm/channel.hpp"
#include "fedpkd/comm/validate.hpp"
#include "fedpkd/data/partition.hpp"
#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/fl/client.hpp"
#include "fedpkd/fl/client_pool.hpp"
#include "fedpkd/fl/engine_state.hpp"
#include "fedpkd/fl/metrics.hpp"
#include "fedpkd/robust/aggregate.hpp"
#include "fedpkd/robust/attack.hpp"

namespace fedpkd::fl::durable {
class GenerationChain;  // fedpkd/fl/durable_io.hpp
}

namespace fedpkd::fl {

/// How a round executes on the simulated clock (fl::RoundPipeline picks the
/// engine).
///
///  * kSync — today's barrier: broadcast, train everyone, wait for every
///    upload (minus deadline stragglers), aggregate once. Bitwise identical
///    to the pre-engine pipeline.
///  * kSemiSync — the server aggregates at the upload deadline with whatever
///    arrived; later uploads are stragglers. Requires a finite
///    upload_deadline_ms.
///  * kAsync — FedBuff-style buffered asynchrony: every round is one wake
///    slice of wake_interval_ms; the server aggregates whenever buffer_k
///    uploads have arrived, discounting each by its staleness
///    w(τ) = 1/(1+τ)^β, and clients pull the newest global state on their
///    next wake. Uploads and the aggregation buffer persist across rounds
///    (and checkpoints).
enum class RoundMode : std::uint8_t { kSync = 0, kSemiSync = 1, kAsync = 2 };

/// "sync" / "semisync" / "async".
const char* to_string(RoundMode mode);
/// Inverse of to_string; throws std::invalid_argument on anything else.
RoundMode parse_round_mode(const std::string& name);

/// Server-side round discipline under faults: how long the server waits for
/// uploads, how many surviving contributions make a round worth aggregating,
/// and which inbound payloads are trusted (RoundPipeline enforces all three).
struct RoundPolicy {
  /// Uploads whose simulated arrival time exceeds this deadline are excluded
  /// as stragglers (their bytes were still charged — the frames did cross
  /// the wire, the server just stopped waiting). infinity = wait forever.
  /// In semisync mode this is also the aggregation tick and must be finite;
  /// async mode ignores it (a late upload is stale, never dropped).
  double upload_deadline_ms = std::numeric_limits<double>::infinity();
  /// Minimum fraction of this round's participants that must survive
  /// transport, deadline, and validation for the server step to run; below
  /// it the round is skipped gracefully (quorum_misses counts it). 0 = any
  /// non-empty set aggregates, the pre-policy behavior. Sync and semisync
  /// only — async has no per-round cohort to take a quorum of.
  double quorum_fraction = 0.0;
  /// Poisoned-update defense applied to every surviving contribution.
  comm::ValidationPolicy validation;
  /// Round execution engine; kSync preserves the barrier semantics bitwise.
  RoundMode mode = RoundMode::kSync;
  /// Async: the server flushes its buffer after this many validated uploads.
  /// 0 derives ceil(participants / 2) from the first round's wake set.
  std::size_t buffer_k = 0;
  /// Async: staleness discount exponent β in w(τ) = 1/(1+τ)^β. 0 disables
  /// the discount (pure FedBuff counting).
  double staleness_beta = 0.5;
  /// Async: simulated length of one wake slice (one run_round call) in ms.
  double wake_interval_ms = 100.0;
};

/// How the train pool is split across clients (paper Section V-A).
enum class PartitionMethod { kIid, kDirichlet, kShards, kClassSplit };

struct PartitionSpec {
  PartitionMethod method = PartitionMethod::kDirichlet;
  double alpha = 0.5;                  // Dirichlet concentration
  std::size_t classes_per_client = 3;  // shards: the paper's k
  std::size_t shards_per_client = 8;
  std::size_t shard_size = 20;

  static PartitionSpec iid();
  static PartitionSpec dirichlet(double alpha);
  static PartitionSpec shards(std::size_t k, std::size_t shards_per_client,
                              std::size_t shard_size = 20);
  static PartitionSpec class_split();

  /// Short label like "dir(0.1)" or "shards(k=3)" for experiment tables.
  std::string label() const;
};

/// Federation-wide construction parameters.
struct FederationConfig {
  std::size_t num_clients = 8;
  /// Architectures cycled across clients; one entry = homogeneous setting.
  std::vector<std::string> client_archs = {"resmlp20"};
  ClientConfig client_defaults;
  /// Size of each client's personalized test set, resampled from the global
  /// test pool to match the client's training label distribution.
  std::size_t local_test_per_client = 200;
  std::uint64_t seed = 7;
  /// Lanes for the round-execution engine (client-parallel training and
  /// knowledge computation, row-parallel tensor ops). build_federation
  /// applies it via exec::set_num_threads. Default 1 = serial; 0 = one lane
  /// per hardware thread. Results are bitwise identical for every value:
  /// each client owns its RNG stream and aggregation always reduces in
  /// client-index order, never completion order.
  std::size_t num_threads = 1;
  /// Byzantine-robust aggregation rule and anomaly-filter knobs, applied by
  /// every driver's server step and the pipeline's upload stage.
  robust::RobustPolicy robust;
  /// Hierarchical aggregation: with a value > 1 the pipeline pre-combines
  /// the surviving contributions into this many contiguous slot-order edge
  /// groups (robust::tiered kernels) before the server step. <= 1 keeps the
  /// flat single-tier topology, bitwise unchanged.
  std::size_t edge_aggregators = 0;
};

/// Construction parameters of a *virtual* federation: the population is a
/// number, not a vector of materialized clients. Full Client state exists
/// only for the warm set of the ClientPool; each client's dataset shard is
/// regenerated on hydration from the deterministic SyntheticVision sampler.
/// This is what lets one box simulate 100k-1M clients (ROADMAP item 1).
struct VirtualFederationConfig {
  /// The synthetic task; also the source of every client's lazy shard.
  data::SyntheticVisionConfig task = data::SyntheticVisionConfig::synth10();
  std::size_t population = 100000;
  /// Participants sampled per round (distinct ids, rejection-sampled in
  /// O(cohort) — the resident path's O(population) shuffle would dominate at
  /// 1M clients).
  std::size_t cohort_size = 8;
  /// Warm-LRU bound of the client pool; 0 derives 4 * cohort_size.
  std::size_t warm_capacity = 0;
  std::vector<std::string> client_archs = {"resmlp20"};
  ClientConfig client_defaults;
  std::size_t shard_size = 64;             // per-client train samples
  std::size_t local_test_per_client = 32;  // per-client test samples
  /// 0 = IID shards; k > 0 restricts each client to k id-chosen classes
  /// (the virtual-mode analogue of the shards partition).
  std::size_t classes_per_client = 0;
  std::size_t test_n = 1000;   // server-side global test set
  std::size_t public_n = 400;  // shared public set
  std::uint64_t seed = 7;
  std::size_t num_threads = 1;
  robust::RobustPolicy robust;
  std::size_t edge_aggregators = 0;
};

/// The shared world of one federated run: datasets, the client pool, and the
/// metered star network. Non-copyable and non-movable (Channel aliases
/// Meter); construct with build_federation (resident pool, every client
/// materialized) or build_virtual_federation (virtual pool, clients hydrated
/// on demand for the sampled cohort only).
struct Federation {
  data::Dataset public_data;  // treated as unlabeled by all algorithms
  data::Dataset test_global;
  /// All client state lives here. Resident federations keep every client
  /// permanently warm (bitwise the pre-pool behavior); virtual federations
  /// hydrate the sampled cohort through the bounded LRU.
  ClientPool pool;
  /// The architecture cycle and shared hyperparameters clients are built
  /// from (what drivers consult instead of scanning materialized clients —
  /// a virtual federation may have a million of them).
  std::vector<std::string> client_archs;
  ClientConfig client_defaults;
  comm::Meter meter;
  comm::Channel channel{meter};
  tensor::Rng rng{0};
  std::size_t num_classes = 0;
  std::size_t input_dim = 0;

  /// Fraction of clients sampled into each round (FedAvg's C parameter);
  /// 1.0 = full participation. At least one client always participates.
  /// Set before run_federation; resampled by begin_round every round.
  double participation_fraction = 1.0;

  /// Virtual federations sample exactly this many distinct participants per
  /// round (0 falls back to participation_fraction * population). Ignored by
  /// resident federations, which keep the fraction semantics.
  std::size_t cohort_size = 0;

  /// Hierarchical aggregation tier count (see FederationConfig). <= 1 = flat.
  std::size_t edge_aggregators = 0;

  /// Deadline / quorum / inbound-validation discipline enforced by the
  /// staged pipeline. Defaults are fully permissive (pre-fault behavior).
  RoundPolicy policy;

  /// Byzantine-robust aggregation policy (copied from FederationConfig by
  /// build_federation; kNone keeps every driver's native aggregation).
  robust::RobustPolicy robust;
  /// Scripted adversarial clients, executed at the upload stage. Mirrors the
  /// fault layer: configure with set_attack_plan, stateful pieces (the
  /// free-rider replay cache) ride in checkpoint v3.
  robust::AttackInjector attacks;
  /// History of accepted weights-upload norms feeding the adaptive
  /// validation bound (policy.validation.adaptive_weights_norm).
  comm::WeightNormTracker norm_tracker;
  /// The round engine's persistent state: simulated clock, global version,
  /// in-flight uploads, aggregation buffer, staleness cursors. Serialized in
  /// checkpoint v5 so async runs resume bitwise mid-buffer.
  EngineState engine;

  void set_attack_plan(robust::AttackPlan plan) {
    attacks.set_plan(std::move(plan));
  }

  Federation() = default;
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  std::size_t num_clients() const { return pool.population(); }

  /// The client with this id, hydrating it first in a virtual federation.
  /// The reference is stable while the client is warm; the round pipeline
  /// pins the sampled cohort so its pointers stay valid for the whole round.
  Client& client(std::size_t id) { return pool.acquire(id); }

  /// Distinct client architectures in first-appearance order (from
  /// client_archs when set; falls back to scanning the materialized clients
  /// for hand-built federations).
  std::vector<std::string> distinct_archs();

  /// Stamps the traffic meter with the round number and samples this round's
  /// participants. Idempotent per round number: the RoundPipeline calls it
  /// at the top of every round, and a caller stepping rounds manually (or
  /// run_federation) may have called it already — the second call for the
  /// same round keeps the sampled participant set instead of resampling.
  /// Virtual federations additionally hydrate and pin the sampled cohort.
  void begin_round(std::size_t round);

  /// Ids of the clients participating in the current round, ascending. All
  /// clients until begin_round is first called or while every client
  /// participates. Ids stay valid across hydration/eviction — unlike the
  /// raw Client* list this replaces, which dangled once the pool could
  /// retire client state.
  std::vector<std::size_t> active_client_ids() const;

  /// Ids evaluated by evaluate_round: every client in a resident
  /// federation; the current cohort in a virtual one (evaluating a million
  /// cold clients would hydrate all of them), empty before the first round.
  std::vector<std::size_t> eval_client_ids() const;

  /// Reseeds the participation sampler (build_federation derives it from the
  /// federation seed so runs stay reproducible).
  void seed_participation(tensor::Rng rng) { participation_rng_ = rng; }

  /// Snapshot of the participation sampler for checkpointing. A resumed run
  /// must restore all four pieces or round t+1 would resample participants
  /// from a diverged stream.
  struct ParticipationState {
    std::vector<std::size_t> active_indices;
    tensor::RngState rng;
    bool sampled_once = false;
    std::size_t begun_round = 0;
  };
  ParticipationState participation_state() const {
    return {active_indices_, participation_rng_.state(), sampled_once_,
            begun_round_};
  }
  void restore_participation(const ParticipationState& state) {
    active_indices_ = state.active_indices;
    participation_rng_.set_state(state.rng);
    sampled_once_ = state.sampled_once;
    begun_round_ = state.begun_round;
  }

 private:
  std::vector<std::size_t> active_indices_;
  tensor::Rng participation_rng_{0x9a47};
  bool sampled_once_ = false;
  std::size_t begun_round_ = 0;
};

/// Builds a federation from a data bundle: partitions the train pool,
/// instantiates per-client models (cycling client_archs), and derives each
/// client's local test set from the global test pool so that its label
/// distribution matches the client's training distribution (the paper's
/// personalized C_acc protocol).
std::unique_ptr<Federation> build_federation(
    const data::FederatedDataBundle& bundle, const PartitionSpec& partition,
    const FederationConfig& config);

/// Builds a virtual federation: server-side datasets are sampled once, the
/// population exists only as derivable specs in the client pool, and each
/// round's cohort is hydrated on demand (see VirtualFederationConfig).
std::unique_ptr<Federation> build_virtual_federation(
    const VirtualFederationConfig& config);

/// A federated learning algorithm driven round-by-round.
class Algorithm {
 public:
  virtual ~Algorithm() = default;
  virtual std::string name() const = 0;
  /// Executes communication round `round` against the federation.
  virtual void run_round(Federation& fed, std::size_t round) = 0;
  /// The server model, if the algorithm trains one (nullptr otherwise).
  virtual nn::Classifier* server_model() { return nullptr; }
  /// Per-stage wall-clock spans of the most recent round, when the algorithm
  /// runs on the staged pipeline (nullptr otherwise).
  virtual const StageTimes* last_stage_times() const { return nullptr; }
  /// Robustness counters of the most recent round, when the algorithm runs
  /// on the staged pipeline (nullptr otherwise).
  virtual const RoundFaultStats* last_fault_stats() const { return nullptr; }
  /// Per-client anomaly records of the most recent round, when the staged
  /// pipeline ran the anomaly filter (nullptr or empty otherwise).
  virtual const std::vector<ClientAnomaly>* last_anomaly() const {
    return nullptr;
  }
  /// Client-pool hydration counters of the most recent round, when the
  /// algorithm runs on the staged pipeline against a virtual federation
  /// (nullptr otherwise).
  virtual const PoolRoundStats* last_pool_stats() const { return nullptr; }
  /// Event-engine counters of the most recent round (simulated makespan,
  /// buffer flushes, staleness histogram), when the algorithm runs on the
  /// staged pipeline (nullptr otherwise).
  virtual const RoundEngineStats* last_engine_stats() const { return nullptr; }

  /// -- Crash-resume hooks ---------------------------------------------------
  /// Algorithms opting into federation checkpoints serialize their full
  /// cross-round state (server weights, server RNG, retained knowledge) so a
  /// resumed run continues bitwise from the interrupted one.
  virtual bool supports_resume() const { return false; }
  virtual void save_state(std::vector<std::byte>& out) { (void)out; }
  virtual void load_state(std::span<const std::byte> bytes,
                          std::size_t& offset) {
    (void)bytes;
    (void)offset;
  }
};

struct RunOptions {
  std::size_t rounds = 10;
  /// If non-null, one progress line is printed per round.
  std::ostream* log = nullptr;
  std::size_t eval_batch = 256;
  /// First round index to execute (resume path: checkpoint's next_round).
  std::size_t start_round = 0;
  /// When > 0 and a checkpoint destination is set, a federation checkpoint
  /// is written after every checkpoint_every-th round (requires
  /// supports_resume()).
  std::size_t checkpoint_every = 0;
  /// Single-file destination: each checkpoint atomically replaces this path.
  std::filesystem::path checkpoint_path;
  /// Generation-chain destination (preferred for crash safety): each
  /// checkpoint commits a new sealed generation; a torn newest generation
  /// falls back to the previous one on load. Takes precedence over
  /// checkpoint_path when both are set. Not owned.
  durable::GenerationChain* checkpoint_chain = nullptr;
};

/// Runs `algorithm` for the configured number of rounds, evaluating server
/// and client accuracy and cumulative traffic after each round.
RunHistory run_federation(Algorithm& algorithm, Federation& fed,
                          const RunOptions& options);

/// Evaluates the current state without training (round snapshot).
RoundMetrics evaluate_round(Algorithm& algorithm, Federation& fed,
                            std::size_t round, std::size_t eval_batch = 256);

}  // namespace fedpkd::fl
