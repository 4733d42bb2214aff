#pragma once

#include <optional>
#include <variant>
#include <vector>

#include "fedpkd/fl/federation.hpp"

namespace fedpkd::fl {

/// The staged round pipeline: one instrumented
///
///   download(broadcast) -> local_update -> upload -> server_step
///     -> download -> apply
///
/// skeleton shared by every algorithm in the suite. An algorithm implements
/// RoundStages — its per-stage payloads and server logic — and RoundPipeline
/// owns everything the eight bespoke drivers used to duplicate:
///
///  * participation: the pipeline begins the round (sampling this round's
///    participants) and threads one active-client list through every stage;
///  * transport: every client<->server transfer goes through
///    comm::Channel::send_sealed, so every byte is encoded for real,
///    CRC32-framed, metered, retried under loss/corruption, and subject to
///    the federation's FaultPlan — a stage implementation never touches the
///    channel. A broadcast or download is sealed once per stage and shared
///    by every recipient; uploads are sealed on the lanes;
///  * round discipline under faults (Federation::policy): the same round
///    function runs the sync barrier, the semisync deadline tick and async
///    buffering; uploads slower than the deadline are excluded as
///    stragglers, surviving contributions are validated against the
///    poisoned-update policy, and a round below quorum is skipped
///    gracefully;
///  * graceful degradation, one rule for all algorithms: a lost downlink
///    bundle leaves that client on its stale state, a lost uplink bundle
///    excludes that client from server_step, and a round with zero surviving
///    contributions ends after the upload stage with the server untouched;
///  * determinism: compute-heavy stages fan out per client on the exec
///    thread pool while all channel sends and server reductions run serially
///    in client-index order, preserving the bitwise serial==parallel
///    contract (tests/test_exec.cpp, tests/test_pipeline.cpp);
///  * instrumentation: per-stage wall-clock spans (fl::StageTimes) recorded
///    for every round and surfaced through RoundMetrics.
///
/// The two downlink slots cover both round shapes in the literature: the
/// weight-broadcast family (FedAvg/FedProx/FedDF) downloads *before* local
/// training (make_broadcast), the distillation family (FedMD, DS-FL, FedET,
/// FedProto, FedPKD) downloads *after* the server step (make_download). Both
/// slots share one transport path and one timing span.

/// One typed message; the pipeline visits the variant to route it through
/// comm::Channel::send.
using StagePayload = std::variant<comm::WeightsPayload, comm::LogitsPayload,
                                  comm::PrototypesPayload>;

/// What one endpoint transmits to one peer as a unit. Multi-part bundles
/// (FedPKD's logits + prototypes) are all-or-nothing on the receive side: if
/// any part is dropped the whole bundle counts as missing, exactly like a
/// straggler drop-out — delivered parts are still charged to the meter, as a
/// real network would.
struct PayloadBundle {
  std::vector<StagePayload> parts;

  PayloadBundle() = default;
  PayloadBundle(StagePayload part) { parts.push_back(std::move(part)); }
};

/// A delivered bundle as raw wire bytes. Receivers decode with the typed
/// accessors (comm::decode_* round-trip) — the pipeline never lets a payload
/// skip serialization, so an algorithm that "cheats" by sharing pointers
/// fails its round-trip.
struct WireBundle {
  std::vector<std::vector<std::byte>> parts;

  comm::WeightsPayload weights(std::size_t part = 0) const;
  comm::LogitsPayload logits(std::size_t part = 0) const;
  comm::PrototypesPayload prototypes(std::size_t part = 0) const;
};

/// Shared state of one pipeline round, threaded through every stage hook.
struct RoundContext {
  Federation& fed;
  std::size_t round = 0;
  /// This round's participants in client-index order. Stage hooks receive
  /// slot indices into this vector; `active[slot]->id` is the global id.
  std::vector<Client*> active;

  /// This round's fault/robustness counters, for stage hooks that want to
  /// report aggregation-side events (e.g. norm-clipped contributions).
  /// Set by RoundPipeline before any hook runs; may be null in bare tests.
  RoundFaultStats* faults = nullptr;

  RoundContext(Federation& federation, std::size_t round_index,
               std::vector<Client*> participants)
      : fed(federation), round(round_index), active(std::move(participants)) {}

  std::size_t num_active() const { return active.size(); }

  /// The pre-training downlink bundle delivered to slot `i` (nullptr when the
  /// algorithm broadcasts nothing or a part to this client was dropped).
  const WireBundle* broadcast(std::size_t i) const {
    return i < broadcast_rx.size() && broadcast_rx[i] ? &*broadcast_rx[i]
                                                      : nullptr;
  }

  // Filled by RoundPipeline; stages read through broadcast().
  std::vector<std::optional<WireBundle>> broadcast_rx;
};

/// One surviving uplink contribution, as the server sees it.
struct Contribution {
  /// Index into RoundContext::active in sync; the position in the
  /// aggregation batch in semisync and async.
  std::size_t slot = 0;
  Client* client = nullptr;    // sender (for feature dims etc.)
  /// The sender's node id. In async mode an upload can outlive its slot (it
  /// aggregates rounds after it was sent), so server-side records key on
  /// this, not on `slot` or the client pointer.
  comm::NodeId node = 0;
  /// Aggregation weight (|D_c| for a direct upload; the summed member weight
  /// for an edge-combined contribution; staleness-discounted in async mode).
  /// Algorithms weight by this, never by client->train_data.size(), so
  /// hierarchical aggregation stays exact.
  float weight = 0.0f;
  WireBundle bundle;           // delivered wire bytes, ready to decode
};

/// Per-stage hooks an algorithm supplies to the pipeline. Hooks marked
/// "concurrent" run inside exec::parallel_for_each, one slot per claim, in
/// cost order rather than slot order: costliest client first, ties by slot
/// (fl::claim_order). At one lane that is the call order; above one lane any
/// slot may run on any lane at any time within its stage. So a concurrent
/// hook must touch only state owned by its slot (the client's model/RNG plus
/// read-only shared state) and may not assume a lower slot ran first.
/// Everything else runs serially in client-index order.
class RoundStages {
 public:
  virtual ~RoundStages() = default;

  /// Serial hook at the top of every round, before any transfer. Use it to
  /// size shared read-only state the concurrent stages will read — lazy
  /// initialization inside a concurrent hook would race.
  virtual void on_round_start(RoundContext& ctx) { (void)ctx; }

  /// Downlink slot before local training (weight-broadcast family). The same
  /// bundle is sent to every participant. nullopt = no pre-training downlink.
  virtual std::optional<PayloadBundle> make_broadcast(RoundContext& ctx) {
    (void)ctx;
    return std::nullopt;
  }

  /// Stage 1 — local training for slot `i` (concurrent). Read the delivered
  /// broadcast through ctx.broadcast(i); a missing bundle means "train from
  /// stale state".
  virtual void local_update(RoundContext& ctx, std::size_t i,
                            Client& client) = 0;

  /// Serial hook between local training and the concurrent make_upload
  /// fan-out (runs inside the upload timing span). The default does nothing.
  virtual void before_upload(RoundContext& ctx) { (void)ctx; }

  /// Stage 2 — slot `i`'s uplink bundle (concurrent compute; the pipeline
  /// then sends all bundles serially in slot order).
  virtual PayloadBundle make_upload(RoundContext& ctx, std::size_t i,
                                    Client& client) = 0;

  /// Stage 3 — aggregation/distillation over the surviving contributions
  /// (slot order in sync, arrival order in semisync and async). Never
  /// called with an empty list: a fully-dropped round skips stages 3-5 and
  /// leaves the server untouched.
  virtual void server_step(RoundContext& ctx,
                           std::vector<Contribution>& contributions) = 0;

  /// Stage 4 — downlink slot after the server step (distillation family).
  /// nullopt = nothing to send down, which also skips stage 5.
  virtual std::optional<PayloadBundle> make_download(RoundContext& ctx) {
    (void)ctx;
    return std::nullopt;
  }

  /// Stage 5 — digest the delivered downlink bundle on slot `i`
  /// (concurrent). Not called for clients whose bundle was dropped.
  virtual void apply_download(RoundContext& ctx, std::size_t i, Client& client,
                              const WireBundle& bundle) {
    (void)ctx;
    (void)i;
    (void)client;
    (void)bundle;
  }
};

/// What one pipeline round reports back: wall-clock spans (non-deterministic,
/// never serialized) and robustness counters (deterministic under the fault
/// plan's seed, pinned by golden traces and kept across checkpoint-resume).
struct RoundOutcome {
  StageTimes times;
  RoundFaultStats faults;
  /// Per-contribution anomaly records (slot order), when the anomaly filter
  /// ran this round; empty otherwise. Deterministic, serialized with the
  /// history (checkpoint v3).
  std::vector<ClientAnomaly> anomaly;
  /// Client-pool hydration counters of this round (virtual federations only;
  /// Federation::pool.take_round_stats() at the round end). Observability
  /// data, never serialized.
  std::optional<PoolRoundStats> pool;
  /// Event-engine counters of this round: simulated makespan, flushes,
  /// staleness histogram. Deterministic, serialized with the history
  /// (checkpoint v5).
  std::optional<RoundEngineStats> engine;
};

/// The staged round executor. Every RoundMode runs through one round
/// function on the same stage hooks; fed.policy.mode decides only the
/// straggler test, the arrival order, the order of the anomaly filter and
/// quorum, the engine bookkeeping and the simulated clock (DESIGN.md §14).
/// kSync is the barrier, kSemiSync the deadline tick, kAsync FedBuff-style
/// buffering.
class RoundPipeline {
 public:
  /// Executes one full round of `stages` against `fed` (begins the round,
  /// sampling participants, if the caller has not already) and returns the
  /// per-stage wall-clock spans plus this round's fault counters. Throws
  /// std::invalid_argument on an unusable policy (semisync without a finite
  /// deadline, async without a positive wake interval).
  RoundOutcome run(RoundStages& stages, Federation& fed, std::size_t round);
};

/// Base for algorithms expressed as RoundStages: run_round delegates to the
/// shared RoundPipeline and records per-round stage times and fault stats.
class StagedAlgorithm : public Algorithm, public RoundStages {
 public:
  void run_round(Federation& fed, std::size_t round) final;

  /// Wall-clock spans of every round executed so far, in order.
  const std::vector<StageTimes>& stage_times() const { return times_; }
  /// Sum over all executed rounds.
  StageTimes total_stage_times() const;

  /// Fault counters of every round executed so far, in order.
  const std::vector<RoundFaultStats>& fault_stats() const { return faults_; }
  /// Sum over all executed rounds (latency is the max, matching +=).
  RoundFaultStats total_fault_stats() const;

  const StageTimes* last_stage_times() const override {
    return times_.empty() ? nullptr : &times_.back();
  }
  const RoundFaultStats* last_fault_stats() const override {
    return faults_.empty() ? nullptr : &faults_.back();
  }
  const std::vector<ClientAnomaly>* last_anomaly() const override {
    return anomaly_.empty() ? nullptr : &anomaly_.back();
  }
  /// Anomaly records of every round executed so far, in order (one vector per
  /// round; empty when the filter did not run).
  const std::vector<std::vector<ClientAnomaly>>& anomaly_records() const {
    return anomaly_;
  }

  const PoolRoundStats* last_pool_stats() const override {
    return pool_stats_.empty() || !pool_stats_.back().has_value()
               ? nullptr
               : &*pool_stats_.back();
  }

  const RoundEngineStats* last_engine_stats() const override {
    return engine_stats_.empty() || !engine_stats_.back().has_value()
               ? nullptr
               : &*engine_stats_.back();
  }

 private:
  RoundPipeline pipeline_;
  std::vector<StageTimes> times_;
  std::vector<RoundFaultStats> faults_;
  std::vector<std::vector<ClientAnomaly>> anomaly_;
  std::vector<std::optional<PoolRoundStats>> pool_stats_;
  std::vector<std::optional<RoundEngineStats>> engine_stats_;
};

}  // namespace fedpkd::fl
