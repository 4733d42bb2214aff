#include "fedpkd/fl/event_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "fedpkd/comm/payload.hpp"
#include "fedpkd/comm/validate.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/durable_io.hpp"
#include "fedpkd/robust/attack.hpp"

namespace fedpkd::fl {

namespace {

using detail::BundleResult;
using detail::SealedBundle;
using detail::seal_bundle;
using detail::send_bundle_reliable;
using PendingUpload = EngineState::PendingUpload;

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

void record_staleness(std::uint64_t tau, RoundEngineStats& stats) {
  const std::size_t bucket =
      std::min<std::uint64_t>(tau, kStalenessBuckets - 1);
  ++stats.staleness_hist[bucket];
  stats.max_staleness =
      std::max(stats.max_staleness, static_cast<std::size_t>(tau));
}

/// Turns buffered uploads into server Contributions: hydrates the sender
/// (serially, deterministic id order within the buffer), applies the
/// staleness discount to the aggregation weight and the prototype supports,
/// and records the staleness histogram.
std::vector<Contribution> build_contributions(Federation& fed,
                                              std::vector<PendingUpload>& ups,
                                              bool discount,
                                              RoundEngineStats& stats) {
  std::vector<Contribution> contributions;
  contributions.reserve(ups.size());
  for (std::size_t c = 0; c < ups.size(); ++c) {
    PendingUpload& up = ups[c];
    const std::uint64_t tau = fed.engine.global_version - up.trained_version;
    const double w =
        discount ? staleness_weight(tau, fed.policy.staleness_beta) : 1.0;
    record_staleness(tau, stats);
    Contribution out;
    out.slot = c;
    out.node = static_cast<comm::NodeId>(up.client);
    // Hydrating here keeps FedProto-style server steps (which read the
    // sender's model dims) working even when the sender is outside this
    // wake's cohort. Virtual federations need warm capacity for the cohort
    // plus the buffer — the default 4x cohort bound covers K <= cohort.
    out.client = &fed.client(up.client);
    out.weight = static_cast<float>(static_cast<double>(up.weight) * w);
    out.bundle.parts = std::move(up.parts);
    discount_prototype_supports(out.bundle.parts, w);
    contributions.push_back(std::move(out));
  }
  return contributions;
}

/// One server aggregation over `ups` (the async buffer or the semisync
/// deadline batch): anomaly filter, optional edge tier, server_step, global
/// version bump. Returns false when the anomaly filter emptied the set (the
/// uploads are consumed either way).
bool flush_uploads(RoundStages& stages, Federation& fed, RoundContext& ctx,
                   std::vector<PendingUpload>& ups, bool discount,
                   RoundOutcome& outcome, RoundEngineStats& stats) {
  std::vector<Contribution> contributions =
      build_contributions(fed, ups, discount, stats);
  ups.clear();
  detail::apply_anomaly_filter(fed, contributions, outcome, outcome.faults);
  if (contributions.empty()) return false;
  stats.aggregated_uploads += contributions.size();
  if (fed.edge_aggregators > 1 &&
      contributions.size() > fed.edge_aggregators) {
    contributions = detail::edge_aggregate(fed, contributions, outcome.faults);
  }
  stages.server_step(ctx, contributions);
  ++fed.engine.global_version;
  ++stats.buffer_flushes;
  // The nastiest crash window in the async engine: the server model already
  // advanced, the flushed buffer is gone from memory, and the round that
  // would checkpoint it has not finished. Resume must re-derive the whole
  // slice from the previous checkpoint.
  durable::crash_point("engine:after_flush");
  return true;
}

}  // namespace

RoundOutcome run_event_driven(RoundStages& stages, Federation& fed,
                              std::size_t round) {
  const RoundPolicy& policy = fed.policy;
  const bool async_mode = policy.mode == RoundMode::kAsync;
  if (!async_mode && !std::isfinite(policy.upload_deadline_ms)) {
    throw std::invalid_argument(
        "run_event_driven: semisync mode needs a finite upload_deadline_ms "
        "(the deadline is the aggregation tick)");
  }
  if (async_mode && !(policy.wake_interval_ms > 0.0)) {
    throw std::invalid_argument(
        "run_event_driven: async mode needs a positive wake_interval_ms");
  }
  EngineState& eng = fed.engine;
  RoundOutcome outcome;
  StageTimes& times = outcome.times;
  RoundFaultStats& faults = outcome.faults;
  RoundEngineStats stats;
  stats.round_start_ms = eng.now_ms;
  comm::FaultInjector& injector = fed.channel.faults();
  fed.begin_round(round);

  // One round = one wake slice on the simulated clock. Semisync's slice is
  // the upload deadline (the aggregation tick); async's is the configured
  // wake interval.
  const double slice_start = eng.now_ms;
  const double slice_len =
      async_mode ? policy.wake_interval_ms : policy.upload_deadline_ms;
  const double slice_end = slice_start + slice_len;

  // Wake set: this round's sampled participants. An async client whose
  // previous upload is still crossing the wire stays busy (FedBuff clients
  // run one training at a time) and skips this wake.
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

  // Label-flip adversaries train on involution-flipped labels this wake,
  // restored after the upload payloads are built (same as the sync body).
  std::vector<Client*> label_flipped;
  if (fed.attacks.active(round)) {
    for (std::size_t i = 0; i < n; ++i) {
      if (fed.attacks.flips_labels(round, ctx.active[i]->id)) {
        robust::flip_labels(ctx.active[i]->train_data.labels, fed.num_classes);
        label_flipped.push_back(ctx.active[i]);
      }
    }
  }

  // --- wake: downlink pull --------------------------------------------------
  // Every waking client pulls the newest global state at the slice start:
  // the pre-training broadcast (weight family) and, in async mode, the
  // knowledge download (distillation family — only once the server has
  // aggregated at least once; semisync keeps the sync shape and downloads
  // after the deadline tick instead). Per-client downlink latency delays
  // that client's upload arrival.
  faults.clients_crashed +=
      injector.advance(round, comm::RoundStage::kBroadcast);
  std::vector<double> downlink_ms(n, 0.0);
  std::vector<std::optional<WireBundle>> pull_rx(n);
  bool have_pull = false;
  {
    StageSpan span(times.download_seconds);
    if (std::optional<PayloadBundle> bundle = stages.make_broadcast(ctx)) {
      const SealedBundle sealed = seal_bundle(std::move(*bundle));
      ctx.broadcast_rx.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        BundleResult sent = send_bundle_reliable(
            fed.channel, comm::kServerId, ctx.active[i]->id, sealed, faults);
        downlink_ms[i] += sent.latency_ms;
        if (sent.wire) {
          eng.set_pulled(static_cast<std::uint32_t>(ctx.active[i]->id),
                         eng.global_version);
        }
        ctx.broadcast_rx[i] = std::move(sent.wire);
      }
    }
    if (async_mode && eng.global_version > 0) {
      if (std::optional<PayloadBundle> bundle = stages.make_download(ctx)) {
        have_pull = true;
        const SealedBundle sealed = seal_bundle(std::move(*bundle));
        for (std::size_t i = 0; i < n; ++i) {
          BundleResult sent = send_bundle_reliable(
              fed.channel, comm::kServerId, ctx.active[i]->id, sealed, faults);
          downlink_ms[i] += sent.latency_ms;
          if (sent.wire) {
            eng.set_pulled(static_cast<std::uint32_t>(ctx.active[i]->id),
                           eng.global_version);
          }
          pull_rx[i] = std::move(sent.wire);
        }
      }
    }
  }
  // Async digest of the pulled knowledge, client-parallel, largest model
  // first (every client digests the same rows).
  if (have_pull) {
    StageSpan span(times.apply_seconds);
    exec::parallel_for_each(
        claim_order(ctx.active, ClientWork::kDigest),
        [&](std::size_t i, std::size_t) {
          if (pull_rx[i]) {
            stages.apply_download(ctx, i, *ctx.active[i], *pull_rx[i]);
          }
        });
  }

  // --- local training (client-parallel, costliest first, as in sync) -------
  {
    StageSpan span(times.local_update_seconds);
    exec::parallel_for_each(claim_order(ctx.active, ClientWork::kTrain),
                            [&](std::size_t i, std::size_t) {
                              stages.local_update(ctx, i, *ctx.active[i]);
                            });
  }

  // --- uploads become in-flight events --------------------------------------
  faults.clients_crashed += injector.advance(round, comm::RoundStage::kUpload);
  {
    StageSpan span(times.upload_seconds);
    std::vector<SealedBundle> sealed =
        detail::seal_uploads(stages, ctx, label_flipped, faults);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::uint32_t>(ctx.active[i]->id);
      BundleResult sent =
          send_bundle_reliable(fed.channel, ctx.active[i]->id,
                               comm::kServerId, std::move(sealed[i]), faults);
      if (!sent.wire) continue;
      const double arrival = slice_start + downlink_ms[i] + sent.latency_ms;
      if (!async_mode && arrival > slice_end) {
        // Semisync: the deadline tick has passed — a too-late upload is a
        // straggler, exactly like the sync deadline rule (bytes stay
        // charged). Async has no deadline: late just means stale.
        ++faults.stragglers_excluded;
        continue;
      }
      PendingUpload up;
      up.client = id;
      up.trained_version = eng.pulled_version(id);
      up.arrival_ms = arrival;
      up.latency_ms = sent.latency_ms;
      up.weight = static_cast<float>(ctx.active[i]->train_data.size());
      up.seq = eng.next_seq++;
      up.parts = std::move(sent.wire->parts);
      eng.in_flight.push_back(std::move(up));
    }
  }

  // --- arrivals up to the slice end, in deterministic event order ----------
  // (arrival_ms, client id, send sequence): simulated-time order with a
  // stable tie-break, independent of thread count and of which round the
  // upload was sent in.
  std::vector<PendingUpload> due;
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

  // Inbound validation in arrival order. The adaptive weights-norm bound is
  // resolved once per round (as in sync); the structural reference is the
  // oldest upload still in the current aggregation batch.
  comm::ValidationPolicy validation = fed.policy.validation;
  if (validation.adaptive_weights_norm) {
    validation.max_weights_norm = fed.norm_tracker.bound_or(
        validation.max_weights_norm, validation.adaptive_norm_factor,
        validation.adaptive_min_history);
  }
  std::vector<PendingUpload> arrived;  // semisync's deadline batch
  const std::size_t flush_k =
      policy.buffer_k > 0
          ? policy.buffer_k
          : std::max<std::size_t>(1, (active_ids.size() + 1) / 2);
  {
    StageSpan span(times.server_step_seconds);
    for (PendingUpload& up : due) {
      std::vector<PendingUpload>& batch = async_mode ? eng.buffer : arrived;
      const std::vector<std::vector<std::byte>>* reference =
          batch.empty() ? nullptr : &batch.front().parts;
      if (validation.enabled() &&
          comm::validate_bundle(up.parts, reference, validation)) {
        ++faults.rejected_contributions;
        continue;
      }
      faults.max_upload_latency_ms =
          std::max(faults.max_upload_latency_ms, up.latency_ms);
      if (fed.policy.validation.adaptive_weights_norm) {
        for (const std::vector<std::byte>& part : up.parts) {
          if (comm::peek_kind(part) == comm::PayloadKind::kWeights) {
            fed.norm_tracker.record(comm::weights_part_norm(part));
          }
        }
      }
      batch.push_back(std::move(up));
      if (async_mode && eng.buffer.size() >= flush_k) {
        flush_uploads(stages, fed, ctx, eng.buffer, /*discount=*/true,
                      outcome, stats);
      }
    }
  }

  double download_ms_max = 0.0;
  if (!async_mode) {
    // --- semisync deadline tick ---------------------------------------------
    // Aggregate whatever arrived, under the sync round discipline: anomaly
    // filter, then quorum against this wake's participant count, then one
    // server step and the post-step download to the cohort.
    bool aggregated = false;
    {
      StageSpan span(times.server_step_seconds);
      const std::size_t survivors = arrived.size();
      bool quorum_ok = true;
      if (policy.quorum_fraction > 0.0) {
        const auto need = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(
                   policy.quorum_fraction * static_cast<double>(n))));
        quorum_ok = survivors >= need;
      }
      if (!quorum_ok) {
        faults.quorum_misses = 1;
        arrived.clear();
      } else if (!arrived.empty()) {
        aggregated = flush_uploads(stages, fed, ctx, arrived,
                                   /*discount=*/false, outcome, stats);
      }
    }
    if (aggregated) {
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
            BundleResult sent = send_bundle_reliable(fed.channel,
                                                     comm::kServerId,
                                                     ctx.active[i]->id,
                                                     sealed, faults);
            download_ms_max = std::max(download_ms_max, sent.latency_ms);
            if (sent.wire) {
              eng.set_pulled(static_cast<std::uint32_t>(ctx.active[i]->id),
                             eng.global_version);
            }
            downlink[i] = std::move(sent.wire);
          }
        }
      }
      // Digest, client-parallel, largest model first, as in sync.
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
    }
  } else {
    // Async downlinks happen at the next wake (clients pull); only the
    // scripted-crash cursor still ticks so crash scripts fire identically
    // across modes.
    faults.clients_crashed +=
        injector.advance(round, comm::RoundStage::kDownload);
  }

  eng.now_ms = slice_end + download_ms_max;
  stats.round_end_ms = eng.now_ms;
  stats.buffered_uploads = eng.buffer.size();
  stats.inflight_uploads = eng.in_flight.size();
  outcome.engine = stats;
  return outcome;
}

}  // namespace fedpkd::fl
