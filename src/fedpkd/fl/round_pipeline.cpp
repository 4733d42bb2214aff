#include "fedpkd/fl/round_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <tuple>

#include "fedpkd/comm/payload.hpp"
#include "fedpkd/comm/validate.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/durable_io.hpp"
#include "fedpkd/robust/aggregate.hpp"
#include "fedpkd/robust/anomaly.hpp"
#include "fedpkd/robust/attack.hpp"

namespace fedpkd::fl {

comm::WeightsPayload WireBundle::weights(std::size_t part) const {
  return comm::decode_weights(parts.at(part));
}

comm::LogitsPayload WireBundle::logits(std::size_t part) const {
  return comm::decode_logits(parts.at(part));
}

comm::PrototypesPayload WireBundle::prototypes(std::size_t part) const {
  return comm::decode_prototypes(parts.at(part));
}

namespace {

using PendingUpload = EngineState::PendingUpload;

/// A bundle encoded and sealed for the wire: one comm::sealed_frame per
/// part, in part order.
using SealedBundle = std::vector<std::vector<std::byte>>;

/// Encodes and seals every part of `bundle`. Takes the bundle by value, so
/// the typed payloads are released as soon as they are sealed.
SealedBundle seal_bundle(PayloadBundle bundle) {
  SealedBundle frames;
  for (const StagePayload& part : bundle.parts) {
    frames.push_back(std::visit(
        [](const auto& payload) { return comm::sealed_frame(payload); },
        part));
  }
  return frames;
}

struct BundleResult {
  std::optional<WireBundle> wire;
  double latency_ms = 0.0;
};

/// Transmits every frame of `bundle` from `from` to `to` over the reliable
/// transport, folding each part's SendReport into `stats`. All parts are
/// sent even after one is lost for good, so the fault-dice sequence — and
/// thus every other link's fate — is independent of delivery outcomes;
/// frames that crossed the wire stay charged on the meter like a real
/// network. Returns the verified wire bytes only if every part made it
/// (all-or-nothing), plus the bundle's total simulated latency (parts travel
/// sequentially over one link). A const bundle (a broadcast or download
/// sealed once per stage) is shared and each delivery copies its payload
/// out; a mutable one (an upload, passed as an rvalue) hands its buffers to
/// the receiver.
template <typename Bundle>
BundleResult send_bundle_reliable(comm::Channel& channel, comm::NodeId from,
                                  comm::NodeId to, Bundle&& bundle,
                                  RoundFaultStats& stats) {
  BundleResult result;
  WireBundle wire;
  wire.parts.reserve(bundle.size());
  std::size_t attempts = 0;
  for (auto& frame : bundle) {
    comm::SendReport report = channel.send_sealed(from, to, std::move(frame));
    stats.send_attempts += report.attempts;
    stats.retries += report.retries;
    stats.frames_dropped += report.drops;
    stats.corrupt_frames += report.corrupt_detected;
    attempts += report.attempts;
    result.latency_ms += report.latency_ms;
    if (report.delivered()) wire.parts.push_back(std::move(*report.payload));
  }
  if (wire.parts.size() == bundle.size()) {
    result.wire = std::move(wire);
  } else if (attempts > 0) {
    // The transport tried and gave up. An offline endpoint (zero attempts)
    // is not a transport loss — it is accounted as a crash, not a lost
    // bundle.
    ++stats.bundles_lost;
  }
  return result;
}

/// The upload stage up to the wire: before_upload, make_upload per slot on
/// the lanes (costliest client first), the adversarial injection serially in
/// slot order on the typed bundles, the restore of `flipped` clients'
/// labels, then encode + seal per slot on the lanes — so poisoned payloads
/// are what gets sealed. Slot i of the result is client ctx.active[i]'s.
std::vector<SealedBundle> seal_uploads(RoundStages& stages, RoundContext& ctx,
                                       const std::vector<Client*>& flipped,
                                       RoundFaultStats& faults) {
  Federation& fed = ctx.fed;
  const std::size_t n = ctx.num_active();
  stages.before_upload(ctx);
  std::vector<PayloadBundle> bundles(n);
  exec::parallel_for_each(claim_order(ctx.active, ClientWork::kTrain),
                          [&](std::size_t i, std::size_t) {
                            bundles[i] = stages.make_upload(ctx, i,
                                                            *ctx.active[i]);
                          });
  // Adversarial injection, serial in slot order (robust::Payload is the
  // same variant type as StagePayload, so the injector mutates the typed
  // bundles in place before they are ever encoded for the wire).
  for (std::size_t i = 0; i < n; ++i) {
    if (fed.attacks.apply(ctx.round, ctx.active[i]->id, bundles[i].parts)) {
      ++faults.attacks_injected;
    }
  }
  for (Client* client : flipped) {
    robust::flip_labels(client->train_data.labels, fed.num_classes);
  }
  std::vector<SealedBundle> sealed(n);
  exec::parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      sealed[i] = seal_bundle(std::move(bundles[i]));
    }
  });
  return sealed;
}

/// Sends make_download's bundle (sealed once) to every participant serially
/// in slot order, then digests it on the lanes, largest model first. Clients
/// whose downlink was lost keep their stale state (same rule as a missed
/// broadcast). With `track_pulls` a delivery moves the client's staleness
/// cursor to the current global version. Returns each slot's downlink
/// latency, or nothing when the algorithm sends nothing down.
std::vector<double> download_and_apply(RoundStages& stages, RoundContext& ctx,
                                       RoundOutcome& outcome,
                                       bool track_pulls) {
  Federation& fed = ctx.fed;
  const std::size_t n = ctx.num_active();
  std::vector<double> latency_ms;
  std::vector<std::optional<WireBundle>> downlink(n);
  {
    StageSpan span(outcome.times.download_seconds);
    std::optional<PayloadBundle> bundle = stages.make_download(ctx);
    if (!bundle) return latency_ms;
    const SealedBundle sealed = seal_bundle(std::move(*bundle));
    latency_ms.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      BundleResult sent = send_bundle_reliable(
          fed.channel, comm::kServerId, ctx.active[i]->id, sealed,
          outcome.faults);
      latency_ms[i] = sent.latency_ms;
      if (sent.wire && track_pulls) {
        fed.engine.set_pulled(static_cast<std::uint32_t>(ctx.active[i]->id),
                              fed.engine.global_version);
      }
      downlink[i] = std::move(sent.wire);
    }
  }
  StageSpan span(outcome.times.apply_seconds);
  exec::parallel_for_each(
      claim_order(ctx.active, ClientWork::kDigest),
      [&](std::size_t i, std::size_t) {
        if (downlink[i]) {
          stages.apply_download(ctx, i, *ctx.active[i], *downlink[i]);
        }
      });
  return latency_ms;
}

std::string format_score(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.4g", value);
  return buffer;
}

/// Hierarchical (edge) aggregation: splits the surviving contributions into
/// `fed.edge_aggregators` contiguous slot-order sub-cohorts, combines each
/// sub-cohort per payload kind under the federation's robust policy, and
/// returns one synthetic contribution per edge (weight = summed member
/// weights, slot/client = first member's). The server step then aggregates
/// the pre-combined tier exactly as it would direct uploads. Groups whose
/// bundles disagree structurally (part count, kinds, logit sample ids,
/// weight shapes) pass their members through uncombined — a heterogeneous
/// sub-cohort degrades to flat aggregation rather than failing the round.
std::vector<Contribution> edge_aggregate(Federation& fed,
                                         std::vector<Contribution>& inputs,
                                         RoundFaultStats& faults) {
  const auto groups =
      robust::edge_partition(inputs.size(), fed.edge_aggregators);
  std::vector<Contribution> tier;
  tier.reserve(groups.size());
  for (const auto& [begin, end] : groups) {
    const std::size_t members = end - begin;
    if (members == 1) {
      tier.push_back(std::move(inputs[begin]));
      continue;
    }
    // Structural conformance check against the group's first bundle.
    const std::vector<std::vector<std::byte>>& head = inputs[begin].bundle.parts;
    bool conforming = true;
    for (std::size_t m = begin + 1; m < end && conforming; ++m) {
      const auto& parts = inputs[m].bundle.parts;
      if (parts.size() != head.size()) {
        conforming = false;
        break;
      }
      for (std::size_t p = 0; p < parts.size(); ++p) {
        if (comm::peek_kind(parts[p]) != comm::peek_kind(head[p])) {
          conforming = false;
          break;
        }
      }
    }
    if (!conforming || head.empty()) {
      for (std::size_t m = begin; m < end; ++m) {
        tier.push_back(std::move(inputs[m]));
      }
      continue;
    }
    Contribution combined;
    combined.slot = inputs[begin].slot;
    combined.client = inputs[begin].client;
    combined.node = inputs[begin].node;
    std::vector<float> member_weights;
    member_weights.reserve(members);
    for (std::size_t m = begin; m < end; ++m) {
      combined.weight += inputs[m].weight;
      member_weights.push_back(inputs[m].weight);
    }
    bool combinable = true;
    std::vector<std::vector<std::byte>> out_parts;
    out_parts.reserve(head.size());
    for (std::size_t p = 0; p < head.size() && combinable; ++p) {
      switch (comm::peek_kind(head[p])) {
        case comm::PayloadKind::kWeights: {
          std::vector<tensor::Tensor> flats;
          flats.reserve(members);
          for (std::size_t m = begin; m < end; ++m) {
            flats.push_back(inputs[m].bundle.weights(p).flat);
          }
          for (std::size_t i = 1; i < flats.size(); ++i) {
            if (!flats[i].same_shape(flats.front())) combinable = false;
          }
          if (!combinable) break;
          // kNone honors the member weights (the |D_c| mean an edge would
          // compute); the order-statistic rules stay weight-blind per tier.
          robust::CombineResult r =
              robust::robust_combine(fed.robust, flats, member_weights);
          faults.clipped_contributions += r.clipped;
          out_parts.push_back(
              comm::encode(comm::WeightsPayload{std::move(r.value)}));
          break;
        }
        case comm::PayloadKind::kLogits: {
          std::vector<comm::LogitsPayload> uploads;
          uploads.reserve(members);
          for (std::size_t m = begin; m < end; ++m) {
            uploads.push_back(inputs[m].bundle.logits(p));
          }
          std::vector<tensor::Tensor> logits;
          logits.reserve(members);
          for (comm::LogitsPayload& u : uploads) {
            if (u.sample_ids != uploads.front().sample_ids ||
                !u.logits.same_shape(uploads.front().logits)) {
              combinable = false;
              break;
            }
            logits.push_back(std::move(u.logits));
          }
          if (!combinable) break;
          // Uniform within the edge: logit consumers (FedMD/DS-FL/FedDF's
          // distillation targets) average per-sample opinions, not per-shard
          // sample counts.
          robust::CombineResult r =
              robust::robust_combine(fed.robust, logits, {});
          faults.clipped_contributions += r.clipped;
          comm::LogitsPayload out;
          out.sample_ids = std::move(uploads.front().sample_ids);
          out.logits = std::move(r.value);
          out_parts.push_back(comm::encode(out));
          break;
        }
        case comm::PayloadKind::kPrototypes: {
          std::vector<comm::PrototypesPayload> uploads;
          uploads.reserve(members);
          for (std::size_t m = begin; m < end; ++m) {
            uploads.push_back(inputs[m].bundle.prototypes(p));
          }
          robust::PrototypeAggregateResult r =
              robust::robust_aggregate_prototypes(fed.robust, uploads);
          faults.clipped_contributions += r.clipped;
          out_parts.push_back(comm::encode(r.payload));
          break;
        }
      }
    }
    if (!combinable) {
      for (std::size_t m = begin; m < end; ++m) {
        tier.push_back(std::move(inputs[m]));
      }
      continue;
    }
    combined.bundle.parts = std::move(out_parts);
    tier.push_back(std::move(combined));
  }
  return tier;
}

/// Prototype-distance anomaly filter (Algorithm 1 generalized from samples
/// to clients): score the surviving contributions against the cohort's
/// robust center, record each verdict in `outcome.anomaly`, and erase the
/// median+MAD outliers before the server step. Returns the per-contribution
/// verdicts (input order), or nothing when the filter is off or the set has
/// fewer than 3 contributions.
std::vector<std::uint8_t> apply_anomaly_filter(
    Federation& fed, std::vector<Contribution>& contributions,
    RoundOutcome& outcome) {
  if (!fed.robust.anomaly_filter || contributions.size() < 3) return {};
  std::vector<std::vector<robust::Payload>> decoded(contributions.size());
  for (std::size_t c = 0; c < contributions.size(); ++c) {
    if (auto parts = robust::decode_parts(contributions[c].bundle.parts)) {
      decoded[c] = std::move(*parts);
    }  // undecodable stays empty -> kMalformedScore
  }
  const std::vector<float> scores = robust::anomaly_scores(decoded);
  robust::AnomalyOptions anomaly_options;
  anomaly_options.theta = fed.robust.anomaly_theta;
  anomaly_options.max_exclude_fraction =
      fed.robust.anomaly_max_exclude_fraction;
  const robust::ExclusionDecision decision =
      robust::decide_exclusions(scores, anomaly_options);
  outcome.anomaly.reserve(outcome.anomaly.size() + contributions.size());
  for (std::size_t c = 0; c < contributions.size(); ++c) {
    ClientAnomaly record;
    record.node = contributions[c].node;
    record.score = scores[c];
    record.excluded = decision.excluded[c] != 0;
    if (record.excluded) {
      record.reason =
          scores[c] >= robust::kMalformedScore
              ? "malformed or non-conforming bundle"
              : "score " + format_score(scores[c]) + " > threshold " +
                    format_score(decision.threshold);
    }
    outcome.anomaly.push_back(std::move(record));
  }
  for (std::size_t c = contributions.size(); c-- > 0;) {
    if (decision.excluded[c]) {
      contributions.erase(contributions.begin() +
                          static_cast<std::ptrdiff_t>(c));
      ++outcome.faults.anomaly_excluded;
    }
  }
  return decision.excluded;
}

/// FedBuff's staleness discount w(τ) = 1/(1+τ)^β.
double staleness_weight(std::uint64_t tau, double beta) {
  if (tau == 0 || beta == 0.0) return 1.0;
  return 1.0 / std::pow(1.0 + static_cast<double>(tau), beta);
}

/// Composes the staleness discount with prototype aggregation: the native
/// and robust prototype merge paths weight by PrototypeEntry::support, so a
/// stale upload's prototype parts are re-encoded with supports scaled by w
/// (floor at 1 — a class the client saw never vanishes entirely). Weights
/// and logits parts compose through Contribution::weight instead and are
/// left untouched.
void discount_prototype_supports(std::vector<std::vector<std::byte>>& parts,
                                 double w) {
  if (w >= 1.0) return;
  for (std::vector<std::byte>& part : parts) {
    if (comm::peek_kind(part) != comm::PayloadKind::kPrototypes) continue;
    comm::PrototypesPayload payload = comm::decode_prototypes(part);
    for (comm::PrototypeEntry& entry : payload.entries) {
      const double scaled =
          std::floor(static_cast<double>(entry.support) * w + 0.5);
      entry.support = static_cast<std::uint32_t>(std::max(1.0, scaled));
    }
    part = comm::encode(payload);
  }
}

/// True when `survivors` of `participants` meet the policy's quorum:
/// ceil(fraction * participants), at least 1, when a fraction is set.
bool quorum_met(const RoundPolicy& policy, std::size_t participants,
                std::size_t survivors) {
  if (!(policy.quorum_fraction > 0.0)) return true;
  const auto need = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             policy.quorum_fraction * static_cast<double>(participants))));
  return survivors >= need;
}

/// One server aggregation over `ups` (the barrier batch, the semisync
/// deadline batch, or the full async buffer), which it consumes. Turns the
/// uploads into Contributions, runs the anomaly filter and the quorum test
/// in the mode's order, records the staleness of what survived, then the
/// optional edge tier and server_step. Returns false when nothing was
/// aggregated.
///
/// A sync batch is this round's uploads in slot order: each contribution
/// takes its slot and client from ctx.active, so a virtual pool sees no
/// lookup, and no engine version moves. An event-mode upload may predate
/// this wake, so its slot is its batch position and its sender is hydrated
/// by id (serially, batch order) — that keeps FedProto-style server steps,
/// which read the sender's model dims, working when the sender is outside
/// this wake's cohort. Async uploads carry the staleness discount in their
/// weight and prototype supports.
bool aggregate(RoundStages& stages, RoundContext& ctx,
               std::vector<PendingUpload>& ups, RoundOutcome& outcome,
               RoundEngineStats& stats) {
  Federation& fed = ctx.fed;
  const RoundPolicy& policy = fed.policy;
  const bool sync = policy.mode == RoundMode::kSync;
  const bool discount = policy.mode == RoundMode::kAsync;
  // Semisync counts the quorum on what arrived; sync counts it after the
  // anomaly filter, so excluded adversaries count toward the shortfall like
  // any other non-contributor. Async has no quorum.
  if (policy.mode == RoundMode::kSemiSync &&
      !quorum_met(policy, ctx.num_active(), ups.size())) {
    outcome.faults.quorum_misses = 1;
    ups.clear();
    return false;
  }
  std::vector<Contribution> contributions;
  std::vector<std::uint64_t> staleness;
  contributions.reserve(ups.size());
  staleness.reserve(ups.size());
  std::size_t slot = 0;
  for (std::size_t c = 0; c < ups.size(); ++c) {
    PendingUpload& up = ups[c];
    const std::uint64_t tau = fed.engine.global_version - up.trained_version;
    const double w = discount ? staleness_weight(tau, policy.staleness_beta)
                              : 1.0;
    Contribution out;
    out.node = static_cast<comm::NodeId>(up.client);
    if (sync) {
      while (ctx.active[slot]->id != out.node) ++slot;
      out.slot = slot;
      out.client = ctx.active[slot];
    } else {
      out.slot = c;
      out.client = &fed.client(up.client);
    }
    out.weight = static_cast<float>(static_cast<double>(up.weight) * w);
    out.bundle.parts = std::move(up.parts);
    discount_prototype_supports(out.bundle.parts, w);
    contributions.push_back(std::move(out));
    staleness.push_back(tau);
  }
  ups.clear();
  const std::vector<std::uint8_t> excluded =
      apply_anomaly_filter(fed, contributions, outcome);
  if (sync && !quorum_met(policy, ctx.num_active(), contributions.size())) {
    outcome.faults.quorum_misses = 1;
    return false;
  }
  // Graceful degradation, one rule for every algorithm: no surviving
  // contribution means the server learns nothing.
  if (contributions.empty()) return false;
  for (std::size_t c = 0; c < staleness.size(); ++c) {
    if (!excluded.empty() && excluded[c]) continue;
    const std::size_t bucket =
        std::min<std::uint64_t>(staleness[c], kStalenessBuckets - 1);
    ++stats.staleness_hist[bucket];
    stats.max_staleness =
        std::max(stats.max_staleness, static_cast<std::size_t>(staleness[c]));
  }
  stats.aggregated_uploads += contributions.size();
  // Hierarchical aggregation tier: edge aggregators pre-combine contiguous
  // sub-cohorts before the server step. Off by default (edge_aggregators ==
  // 0); quorum and the anomaly filter already ran, keeping their per-client
  // semantics.
  if (fed.edge_aggregators > 1 &&
      contributions.size() > fed.edge_aggregators) {
    contributions = edge_aggregate(fed, contributions, outcome.faults);
  }
  stages.server_step(ctx, contributions);
  ++stats.buffer_flushes;
  if (!sync) {
    ++fed.engine.global_version;
    // The nastiest crash window of the event modes: the server model
    // already advanced, the flushed uploads are gone from memory, and the
    // round that would checkpoint them has not finished. Resume must
    // re-derive the whole slice from the previous checkpoint.
    durable::crash_point("engine:after_flush");
  }
  return true;
}

/// One round in any RoundMode; see RoundPipeline and DESIGN.md §14.
RoundOutcome run_round(RoundStages& stages, Federation& fed,
                       std::size_t round) {
  const RoundPolicy& policy = fed.policy;
  const bool sync = policy.mode == RoundMode::kSync;
  const bool async_mode = policy.mode == RoundMode::kAsync;
  if (policy.mode == RoundMode::kSemiSync &&
      !std::isfinite(policy.upload_deadline_ms)) {
    throw std::invalid_argument(
        "RoundPipeline::run: semisync mode needs a finite upload_deadline_ms "
        "(the deadline is the aggregation tick)");
  }
  if (async_mode && !(policy.wake_interval_ms > 0.0)) {
    throw std::invalid_argument(
        "RoundPipeline::run: async mode needs a positive wake_interval_ms");
  }
  EngineState& eng = fed.engine;
  RoundOutcome outcome;
  StageTimes& times = outcome.times;
  RoundFaultStats& faults = outcome.faults;
  RoundEngineStats stats;
  stats.round_start_ms = eng.now_ms;
  comm::FaultInjector& injector = fed.channel.faults();
  fed.begin_round(round);  // idempotent: keeps a caller-sampled participant set

  // Event modes run one wake slice on the simulated clock: semisync's slice
  // is the upload deadline (the aggregation tick), async's the wake
  // interval. A sync round has no slice; it waits for its slowest transfer.
  const double slice_start = eng.now_ms;
  const double slice_end =
      slice_start +
      (async_mode ? policy.wake_interval_ms : policy.upload_deadline_ms);

  // Resolve the participant ids to live clients serially in id order; in a
  // virtual federation begin_round's pin already hydrated them, so these are
  // warm-set lookups and the references stay valid all round. An async
  // client whose previous upload is still crossing the wire stays busy
  // (FedBuff clients run one training at a time) and skips this wake.
  const std::vector<std::size_t> active_ids = fed.active_client_ids();
  std::vector<Client*> participants;
  participants.reserve(active_ids.size());
  for (std::size_t id : active_ids) {
    if (async_mode && eng.has_in_flight(static_cast<std::uint32_t>(id))) {
      ++stats.busy_skips;
      continue;
    }
    participants.push_back(&fed.client(id));
  }
  RoundContext ctx(fed, round, std::move(participants));
  ctx.faults = &faults;
  const std::size_t n = ctx.num_active();
  stages.on_round_start(ctx);

  // Label-flip adversaries train on involution-flipped labels this round.
  // Flipped in place before local_update and restored (the flip is its own
  // inverse) after the upload payloads are built, so poisoned logits and
  // prototypes are also computed from the flipped data — evaluation later in
  // the round sees the client's true labels again.
  std::vector<Client*> label_flipped;
  if (fed.attacks.active(round)) {
    for (std::size_t i = 0; i < n; ++i) {
      if (fed.attacks.flips_labels(round, ctx.active[i]->id)) {
        robust::flip_labels(ctx.active[i]->train_data.labels, fed.num_classes);
        label_flipped.push_back(ctx.active[i]);
      }
    }
  }

  // Downlink slot 1: the pre-training broadcast (weight-broadcast family),
  // sealed once, sent serially in slot order so the fault-dice and meter
  // sequences are thread-count independent. In async mode a waking client
  // also pulls the newest knowledge download (distillation family) once the
  // server has aggregated at least once, and digests it before training.
  // Per-client downlink latency delays that client's upload arrival.
  faults.clients_crashed +=
      injector.advance(round, comm::RoundStage::kBroadcast);
  std::vector<double> downlink_ms(n, 0.0);
  {
    StageSpan span(times.download_seconds);
    if (std::optional<PayloadBundle> bundle = stages.make_broadcast(ctx)) {
      const SealedBundle sealed = seal_bundle(std::move(*bundle));
      ctx.broadcast_rx.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        BundleResult sent = send_bundle_reliable(
            fed.channel, comm::kServerId, ctx.active[i]->id, sealed, faults);
        downlink_ms[i] += sent.latency_ms;
        if (sent.wire && !sync) {
          eng.set_pulled(static_cast<std::uint32_t>(ctx.active[i]->id),
                         eng.global_version);
        }
        ctx.broadcast_rx[i] = std::move(sent.wire);
      }
    }
  }
  if (async_mode && eng.global_version > 0) {
    const std::vector<double> pull_ms =
        download_and_apply(stages, ctx, outcome, /*track_pulls=*/true);
    for (std::size_t i = 0; i < pull_ms.size(); ++i) {
      downlink_ms[i] += pull_ms[i];
    }
  }

  // Stage 1: local update, client-parallel, costliest client first. Each
  // slot touches only its own client (model + RNG stream), so which lane
  // runs it, and when, is bitwise-invisible.
  {
    StageSpan span(times.local_update_seconds);
    exec::parallel_for_each(claim_order(ctx.active, ClientWork::kTrain),
                            [&](std::size_t i, std::size_t) {
                              stages.local_update(ctx, i, *ctx.active[i]);
                            });
  }
  // Crash points sit on the serial control path between stages: a process
  // death here loses the whole round's in-memory work, which resume must
  // re-derive bitwise from the last checkpoint.
  durable::crash_point("round:after_train");

  // Stage 2: upload. Payload construction fans out per client, costliest
  // first (seal_uploads); the sends run serially in slot order. A client
  // whose bundle is lost (any part) does not contribute; one that misses the
  // deadline is a straggler (its bytes stay charged — the frames did cross
  // the wire, the server just stopped waiting). Sync tests the upload
  // latency alone against the deadline (which may be infinite) and keeps its
  // uploads in slot order; semisync tests the downlink-plus-upload arrival
  // against the tick; async has no deadline (late just means stale). Event
  // uploads enter the persistent in-flight queue; sync ones never touch the
  // engine state.
  faults.clients_crashed += injector.advance(round, comm::RoundStage::kUpload);
  std::vector<PendingUpload> due;
  double upload_ms_max = 0.0;
  {
    StageSpan span(times.upload_seconds);
    std::vector<SealedBundle> sealed =
        seal_uploads(stages, ctx, label_flipped, faults);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::uint32_t>(ctx.active[i]->id);
      BundleResult sent =
          send_bundle_reliable(fed.channel, ctx.active[i]->id,
                               comm::kServerId, std::move(sealed[i]), faults);
      if (!sent.wire) continue;
      PendingUpload up;
      up.client = id;
      up.latency_ms = sent.latency_ms;
      up.weight = static_cast<float>(ctx.active[i]->train_data.size());
      up.parts = std::move(sent.wire->parts);
      if (sync) {
        upload_ms_max = std::max(
            upload_ms_max,
            std::min(sent.latency_ms, policy.upload_deadline_ms));
        if (sent.latency_ms > policy.upload_deadline_ms) {
          ++faults.stragglers_excluded;
          continue;
        }
        up.trained_version = eng.global_version;
        due.push_back(std::move(up));
        continue;
      }
      up.arrival_ms = slice_start + downlink_ms[i] + sent.latency_ms;
      if (!async_mode && up.arrival_ms > slice_end) {
        ++faults.stragglers_excluded;
        continue;
      }
      up.trained_version = eng.pulled_version(id);
      up.seq = eng.next_seq++;
      eng.in_flight.push_back(std::move(up));
    }
  }

  // Event modes: the arrivals up to the slice end, in deterministic event
  // order (arrival_ms, client id, send sequence) — simulated-time order with
  // a stable tie-break, independent of thread count and of which round the
  // upload was sent in.
  if (!sync) {
    for (auto it = eng.in_flight.begin(); it != eng.in_flight.end();) {
      if (it->arrival_ms <= slice_end) {
        due.push_back(std::move(*it));
        it = eng.in_flight.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(due.begin(), due.end(),
              [](const PendingUpload& a, const PendingUpload& b) {
                return std::tie(a.arrival_ms, a.client, a.seq) <
                       std::tie(b.arrival_ms, b.client, b.seq);
              });
  }

  // Inbound validation in arrival order. The adaptive weights-norm bound is
  // resolved once per round from the history of previously accepted
  // uploads, so every upload this round faces the same bound regardless of
  // acceptance order; the structural reference is the oldest upload in the
  // current aggregation batch. An async batch is the persistent buffer,
  // aggregated whenever it holds buffer_k uploads.
  comm::ValidationPolicy validation = policy.validation;
  if (validation.adaptive_weights_norm) {
    validation.max_weights_norm = fed.norm_tracker.bound_or(
        validation.max_weights_norm, validation.adaptive_norm_factor,
        validation.adaptive_min_history);
  }
  std::vector<PendingUpload> arrived;  // the barrier / deadline batch
  std::vector<PendingUpload>& batch = async_mode ? eng.buffer : arrived;
  const std::size_t flush_k =
      policy.buffer_k > 0
          ? policy.buffer_k
          : std::max<std::size_t>(1, (active_ids.size() + 1) / 2);
  {
    StageSpan span(times.server_step_seconds);
    for (PendingUpload& up : due) {
      const std::vector<std::vector<std::byte>>* reference =
          batch.empty() ? nullptr : &batch.front().parts;
      if (validation.enabled() &&
          comm::validate_bundle(up.parts, reference, validation)) {
        ++faults.rejected_contributions;
        continue;
      }
      faults.max_upload_latency_ms =
          std::max(faults.max_upload_latency_ms, up.latency_ms);
      if (policy.validation.adaptive_weights_norm) {
        for (const std::vector<std::byte>& part : up.parts) {
          if (comm::peek_kind(part) == comm::PayloadKind::kWeights) {
            fed.norm_tracker.record(comm::weights_part_norm(part));
          }
        }
      }
      batch.push_back(std::move(up));
      if (async_mode && batch.size() >= flush_k) {
        aggregate(stages, ctx, batch, outcome, stats);
      }
    }
  }
  durable::crash_point("round:after_upload");

  // Stage 3: the barrier (sync) or the deadline tick (semisync) aggregates
  // whatever arrived in one server step.
  if (!async_mode) {
    StageSpan span(times.server_step_seconds);
    aggregate(stages, ctx, arrived, outcome, stats);
  }
  const bool aggregated = stats.buffer_flushes > 0;
  if (aggregated) durable::crash_point("round:after_aggregate");

  // Downlink slot 2: the post-server download (distillation family) and its
  // digest, after a barrier or tick that aggregated. Async clients pull at
  // their next wake instead; only the scripted-crash cursor still ticks, so
  // crash scripts fire identically across modes.
  double download_ms_max = 0.0;
  if (aggregated || async_mode) {
    faults.clients_crashed +=
        injector.advance(round, comm::RoundStage::kDownload);
  }
  if (aggregated && !async_mode) {
    for (double ms : download_and_apply(stages, ctx, outcome, !sync)) {
      download_ms_max = std::max(download_ms_max, ms);
    }
  }
  if (aggregated) durable::crash_point("round:after_download");

  // The simulated clock. A sync round takes as long as its slowest
  // broadcast, plus its slowest kept upload (a straggler only costs the
  // deadline — the server stopped waiting), plus its slowest download; an
  // event round ends at its slice end plus the slowest download.
  if (sync) {
    double broadcast_ms_max = 0.0;
    for (double ms : downlink_ms) {
      broadcast_ms_max = std::max(broadcast_ms_max, ms);
    }
    eng.now_ms += broadcast_ms_max + upload_ms_max + download_ms_max;
  } else {
    eng.now_ms = slice_end + download_ms_max;
  }
  stats.round_end_ms = eng.now_ms;
  stats.buffered_uploads = eng.buffer.size();
  stats.inflight_uploads = eng.in_flight.size();
  outcome.engine = stats;
  return outcome;
}

}  // namespace

RoundOutcome RoundPipeline::run(RoundStages& stages, Federation& fed,
                                std::size_t round) {
  RoundOutcome outcome = run_round(stages, fed, round);
  if (fed.pool.virtual_mode()) {
    // The pool's window spans back to the previous round's end, so work done
    // on this round's behalf before this call — run_federation pins the
    // cohort via begin_round first, and the algorithm constructor warms its
    // reference client — is charged to the round it served.
    outcome.pool = fed.pool.take_round_stats();
  }
  return outcome;
}

void StagedAlgorithm::run_round(Federation& fed, std::size_t round) {
  RoundOutcome outcome = pipeline_.run(*this, fed, round);
  times_.push_back(outcome.times);
  faults_.push_back(outcome.faults);
  anomaly_.push_back(std::move(outcome.anomaly));
  pool_stats_.push_back(outcome.pool);
  engine_stats_.push_back(outcome.engine);
}

StageTimes StagedAlgorithm::total_stage_times() const {
  StageTimes total;
  for (const StageTimes& t : times_) total += t;
  return total;
}

RoundFaultStats StagedAlgorithm::total_fault_stats() const {
  RoundFaultStats total;
  for (const RoundFaultStats& f : faults_) total += f;
  return total;
}

}  // namespace fedpkd::fl
