#include "fedpkd/fl/round_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "fedpkd/comm/payload.hpp"
#include "fedpkd/comm/validate.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/durable_io.hpp"
#include "fedpkd/fl/event_engine.hpp"
#include "fedpkd/robust/aggregate.hpp"
#include "fedpkd/robust/anomaly.hpp"

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

namespace detail {

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
/// robust center, exclude median+MAD outliers before the server step. In the
/// sync pipeline it runs before quorum so excluded adversaries count toward
/// the quorum shortfall like any other non-contributor; the async engine
/// applies it per buffer flush.
void apply_anomaly_filter(Federation& fed,
                          std::vector<Contribution>& contributions,
                          RoundOutcome& outcome, RoundFaultStats& faults) {
  if (!fed.robust.anomaly_filter || contributions.size() < 3) return;
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
      ++faults.anomaly_excluded;
    }
  }
}

}  // namespace detail

namespace {

using detail::BundleResult;
using detail::SealedBundle;
using detail::seal_bundle;
using detail::send_bundle_reliable;

/// The staged body of one round; RoundPipeline::run wraps it with the
/// client-pool accounting so every exit path reports the hydration delta.
RoundOutcome run_staged(RoundStages& stages, Federation& fed,
                        std::size_t round) {
  RoundOutcome outcome;
  StageTimes& times = outcome.times;
  RoundFaultStats& faults = outcome.faults;
  comm::FaultInjector& injector = fed.channel.faults();
  fed.begin_round(round);  // idempotent: keeps a caller-sampled participant set
  // Resolve the participant ids to live clients serially in id order; in a
  // virtual federation begin_round's pin already hydrated them, so these are
  // warm-set lookups and the references stay valid all round (pins outlive
  // the round).
  const std::vector<std::size_t> active_ids = fed.active_client_ids();
  std::vector<Client*> participants;
  participants.reserve(active_ids.size());
  for (std::size_t id : active_ids) participants.push_back(&fed.client(id));
  RoundContext ctx(fed, round, std::move(participants));
  ctx.faults = &faults;
  const std::size_t n = ctx.num_active();
  stages.on_round_start(ctx);

  // Simulated-makespan tally for the sync barrier: the round takes as long
  // as its slowest broadcast, plus its slowest kept upload (a straggler past
  // the deadline only costs the deadline — the server stopped waiting), plus
  // its slowest download. Observability only: it consumes no fault dice and
  // perturbs no golden trace.
  RoundEngineStats engine_stats;
  engine_stats.round_start_ms = fed.engine.now_ms;
  double broadcast_ms_max = 0.0;
  double upload_ms_max = 0.0;
  double download_ms_max = 0.0;
  const auto finish_clock = [&]() {
    fed.engine.now_ms +=
        broadcast_ms_max + upload_ms_max + download_ms_max;
    engine_stats.round_end_ms = fed.engine.now_ms;
    outcome.engine = engine_stats;
  };

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

  // Downlink slot 1: pre-training broadcast (weight-broadcast family).
  // Serial per-client sends in slot order keep the fault-dice and meter
  // sequences thread-count independent.
  faults.clients_crashed +=
      injector.advance(round, comm::RoundStage::kBroadcast);
  {
    StageSpan span(times.download_seconds);
    if (std::optional<PayloadBundle> bundle = stages.make_broadcast(ctx)) {
      const SealedBundle sealed = seal_bundle(std::move(*bundle));
      ctx.broadcast_rx.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        BundleResult sent = send_bundle_reliable(
            fed.channel, comm::kServerId, ctx.active[i]->id, sealed, faults);
        broadcast_ms_max = std::max(broadcast_ms_max, sent.latency_ms);
        ctx.broadcast_rx[i] = std::move(sent.wire);
      }
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
  // first (detail::seal_uploads); the sends run serially in slot order. A
  // client whose bundle is lost (any part) simply does not contribute this
  // round; one slower than the deadline is excluded as a straggler (its
  // bytes stay charged — the frames did cross the wire, the server just
  // stopped waiting); one failing validation is rejected.
  faults.clients_crashed += injector.advance(round, comm::RoundStage::kUpload);
  std::vector<Contribution> contributions;
  {
    StageSpan span(times.upload_seconds);
    std::vector<SealedBundle> sealed =
        detail::seal_uploads(stages, ctx, label_flipped, faults);
    std::vector<Contribution> candidates;
    std::vector<double> candidate_latency;
    for (std::size_t i = 0; i < n; ++i) {
      BundleResult sent =
          send_bundle_reliable(fed.channel, ctx.active[i]->id,
                               comm::kServerId, std::move(sealed[i]), faults);
      if (!sent.wire) continue;
      upload_ms_max = std::max(
          upload_ms_max,
          std::min(sent.latency_ms, fed.policy.upload_deadline_ms));
      if (sent.latency_ms > fed.policy.upload_deadline_ms) {
        ++faults.stragglers_excluded;
        continue;
      }
      Contribution candidate;
      candidate.slot = i;
      candidate.client = ctx.active[i];
      candidate.node = ctx.active[i]->id;
      candidate.weight =
          static_cast<float>(ctx.active[i]->train_data.size());
      candidate.bundle = std::move(*sent.wire);
      candidates.push_back(std::move(candidate));
      candidate_latency.push_back(sent.latency_ms);
    }
    // Inbound validation, serial in slot order. The first accepted bundle is
    // the structural reference for the rest; its address is recomputed every
    // iteration because push_back may reallocate. The adaptive weights-norm
    // bound is resolved once per round from the history of previously
    // accepted uploads, so every candidate this round faces the same bound
    // regardless of acceptance order.
    comm::ValidationPolicy validation = fed.policy.validation;
    if (validation.adaptive_weights_norm) {
      validation.max_weights_norm = fed.norm_tracker.bound_or(
          validation.max_weights_norm, validation.adaptive_norm_factor,
          validation.adaptive_min_history);
    }
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const std::vector<std::vector<std::byte>>* reference =
          contributions.empty() ? nullptr : &contributions.front().bundle.parts;
      if (validation.enabled() &&
          comm::validate_bundle(candidates[c].bundle.parts, reference,
                                validation)) {
        ++faults.rejected_contributions;
        continue;
      }
      if (candidate_latency[c] > faults.max_upload_latency_ms) {
        faults.max_upload_latency_ms = candidate_latency[c];
      }
      if (fed.policy.validation.adaptive_weights_norm) {
        for (const std::vector<std::byte>& part :
             candidates[c].bundle.parts) {
          if (comm::peek_kind(part) == comm::PayloadKind::kWeights) {
            fed.norm_tracker.record(comm::weights_part_norm(part));
          }
        }
      }
      contributions.push_back(std::move(candidates[c]));
    }

    // Anomaly filter runs before quorum so excluded adversaries count toward
    // the quorum shortfall like any other non-contributor.
    detail::apply_anomaly_filter(fed, contributions, outcome, faults);
  }
  durable::crash_point("round:after_upload");

  // Quorum: with a configured fraction, fewer survivors than
  // ceil(fraction * participants) abort the round before the server step.
  if (fed.policy.quorum_fraction > 0.0) {
    const auto need = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(fed.policy.quorum_fraction * static_cast<double>(n))));
    if (contributions.size() < need) {
      faults.quorum_misses = 1;
      finish_clock();
      return outcome;
    }
  }

  // Graceful degradation, one rule for every algorithm: no surviving
  // contribution means the server learns nothing this round — skip the
  // remaining stages and leave all state untouched.
  if (contributions.empty()) {
    finish_clock();
    return outcome;
  }

  // Hierarchical aggregation tier: edge aggregators pre-combine contiguous
  // slot-order sub-cohorts before the server step (runs inside the server
  // span — it is server-side reduction work). Off by default
  // (edge_aggregators == 0), so the flat path stays bitwise untouched;
  // quorum and the anomaly filter already ran, keeping their per-client
  // semantics.
  // Stage 3: server aggregation/distillation over surviving contributions.
  {
    StageSpan span(times.server_step_seconds);
    engine_stats.buffer_flushes = 1;
    engine_stats.aggregated_uploads = contributions.size();
    engine_stats.staleness_hist[0] = contributions.size();
    if (fed.edge_aggregators > 1 &&
        contributions.size() > fed.edge_aggregators) {
      contributions = detail::edge_aggregate(fed, contributions, faults);
    }
    stages.server_step(ctx, contributions);
  }
  durable::crash_point("round:after_aggregate");

  // Downlink slot 2: post-server download (distillation family).
  faults.clients_crashed +=
      injector.advance(round, comm::RoundStage::kDownload);
  std::vector<std::optional<WireBundle>> downlink(n);
  bool have_downlink = false;
  {
    StageSpan span(times.download_seconds);
    if (std::optional<PayloadBundle> bundle = stages.make_download(ctx)) {
      have_downlink = true;
      const SealedBundle sealed = seal_bundle(std::move(*bundle));
      for (std::size_t i = 0; i < n; ++i) {
        BundleResult sent = send_bundle_reliable(
            fed.channel, comm::kServerId, ctx.active[i]->id, sealed, faults);
        download_ms_max = std::max(download_ms_max, sent.latency_ms);
        downlink[i] = std::move(sent.wire);
      }
    }
  }

  // Stage 5: apply/digest, client-parallel, largest model first. Clients
  // whose downlink was lost keep their stale state (same rule as a missed
  // broadcast).
  if (have_downlink) {
    StageSpan span(times.apply_seconds);
    exec::parallel_for_each(
        claim_order(ctx.active, ClientWork::kDigest),
        [&](std::size_t i, std::size_t) {
          if (downlink[i]) {
            stages.apply_download(ctx, i, *ctx.active[i], *downlink[i]);
          }
        });
  }
  durable::crash_point("round:after_download");
  finish_clock();
  return outcome;
}

}  // namespace

RoundOutcome RoundPipeline::run(RoundStages& stages, Federation& fed,
                                std::size_t round) {
  RoundOutcome outcome = fed.policy.mode == RoundMode::kSync
                             ? run_staged(stages, fed, round)
                             : run_event_driven(stages, fed, round);
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
