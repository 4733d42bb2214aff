#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fedpkd/fl/round_pipeline.hpp"

/// The event-driven round engine behind RoundPipeline's kSemiSync and kAsync
/// modes (DESIGN.md §14), plus the transport/aggregation helpers it shares
/// with the sync barrier body in round_pipeline.cpp.
///
/// Simulated time, not wall clock: every round is one wake slice on the
/// simulated-ms clock (Federation::engine.now_ms). Events — client wakes,
/// upload arrivals, the deadline tick — are processed in deterministic order
/// (wakes at the slice start in slot order, then arrivals sorted by
/// (arrival_ms, client id, send sequence)), all channel traffic and server
/// reductions run serially, and concurrency only fans out per-slot compute.
/// That keeps both modes bitwise thread-count-invariant and, with the engine
/// state in checkpoint v5, bitwise crash-resumable mid-buffer.

namespace fedpkd::fl {

namespace detail {

/// A bundle encoded and sealed for the wire: one comm::sealed_frame per
/// part, in part order.
using SealedBundle = std::vector<std::vector<std::byte>>;

/// Encodes and seals every part of `bundle`. Takes the bundle by value, so
/// the typed payloads are released as soon as they are sealed.
inline SealedBundle seal_bundle(PayloadBundle bundle) {
  SealedBundle frames;
  for (const StagePayload& part : bundle.parts) {
    frames.push_back(std::visit(
        [](const auto& payload) { return comm::sealed_frame(payload); },
        part));
  }
  return frames;
}

/// The upload stage up to the wire, shared by both engines: before_upload,
/// make_upload per slot on the lanes (costliest client first), the
/// adversarial injection serially in slot order on the typed bundles, the
/// restore of `flipped` clients' labels, then encode + seal per slot on the
/// lanes — so poisoned payloads are what gets sealed. Slot i of the result
/// is client ctx.active[i]'s.
std::vector<SealedBundle> seal_uploads(RoundStages& stages, RoundContext& ctx,
                                       const std::vector<Client*>& flipped,
                                       RoundFaultStats& faults);

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

/// Hierarchical (edge) pre-aggregation of `inputs` into
/// `fed.edge_aggregators` contiguous slot-order groups. See
/// round_pipeline.cpp for the degradation rules.
std::vector<Contribution> edge_aggregate(Federation& fed,
                                         std::vector<Contribution>& inputs,
                                         RoundFaultStats& faults);

/// The prototype-distance anomaly filter over >= 3 contributions: scores,
/// records verdicts into `outcome.anomaly`, erases excluded contributions,
/// counts them in `faults.anomaly_excluded`. No-op when the filter is off or
/// the set is too small.
void apply_anomaly_filter(Federation& fed,
                          std::vector<Contribution>& contributions,
                          RoundOutcome& outcome, RoundFaultStats& faults);

std::string format_score(double value);

}  // namespace detail

/// One event-driven round (semisync or async per fed.policy.mode). Called by
/// RoundPipeline::run; throws std::invalid_argument on an unusable policy
/// (semisync without a finite deadline, async without a positive wake
/// interval).
RoundOutcome run_event_driven(RoundStages& stages, Federation& fed,
                              std::size_t round);

}  // namespace fedpkd::fl
