#pragma once

#include <optional>
#include <type_traits>
#include <vector>

#include "fedpkd/comm/fault.hpp"
#include "fedpkd/comm/frame.hpp"
#include "fedpkd/comm/meter.hpp"
#include "fedpkd/tensor/rng.hpp"

namespace fedpkd::comm {

/// Outcome of one reliable transmission (send_sealed): the verified
/// payload bytes (nullopt = lost after the retry budget, or the link was
/// offline), plus per-message robustness counters the pipeline accumulates
/// into RoundMetrics.
struct SendReport {
  std::optional<std::vector<std::byte>> payload;
  std::size_t attempts = 0;         // frames put on the wire (or rolled away)
  std::size_t retries = 0;          // retransmissions after a loss/corruption
  std::size_t drops = 0;            // attempts lost to the drop dice
  std::size_t corrupt_detected = 0; // CRC failures caught on delivery
  double latency_ms = 0.0;          // simulated time incl. backoff

  bool delivered() const { return payload.has_value(); }
};

/// Encodes `payload` straight behind a reserved frame header and seals it:
/// what Channel::send_sealed transmits.
template <typename Payload>
std::vector<std::byte> sealed_frame(const Payload& payload) {
  std::vector<std::byte> frame = encode(payload, kFrameOverhead);
  seal_frame(frame);
  return frame;
}

/// In-process star-topology network between the server and its clients.
///
/// send() serializes the payload (for real — the receiving side decodes the
/// bytes, so any algorithm that "cheats" by sharing pointers fails its
/// round-trip), charges the Meter, and returns the wire bytes for the
/// receiver to decode. All fault state (drop dice, offline set, corruption,
/// latency, scripted crashes) lives in the FaultInjector; a dropped message
/// is *not* charged, matching a sender that detects a dead link before
/// transmitting.
///
/// Two transports:
///  * send — the raw datagram path: one attempt, no integrity frame. Kept
///    for unit tests and byte-exact accounting of a bare payload.
///  * send_sealed — the pipeline's transport: the payload rides in a CRC32
///    frame (comm/frame.hpp, 8 bytes overhead), a lost or corrupted frame is
///    retried up to the plan's budget with deterministic exponential
///    backoff, and every frame that actually crosses the wire (delivered or
///    corrupted) is charged; dropped attempts are not. The receiver verifies
///    every delivered frame; a corruption hit flips its bit in a copy, so the
///    sender's frame is never mutated and can serve many recipients.
class Channel {
 public:
  explicit Channel(Meter& meter) : meter_(&meter) {}

  /// Installs a full fault schedule (replaces the drop/offline knobs below).
  void set_fault_plan(const FaultPlan& plan) { faults_.set_plan(plan); }
  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }

  /// Simulate an unreliable link. p in [0, 1] (std::invalid_argument
  /// otherwise); default 0 (reliable).
  void set_drop_probability(double p, tensor::Rng rng) {
    faults_.set_drop(p, rng);
  }

  /// Takes a node's link down (or back up): while offline, every message
  /// from or to it is dropped — and, like any dropped message, not charged.
  /// Deterministic dead-link injection for straggler/blackout tests; the
  /// probabilistic drop dice are not consumed for these messages, so other
  /// links' drop sequences are unaffected.
  void set_node_offline(NodeId node, bool offline) {
    faults_.set_node_offline(node, offline);
  }
  bool is_node_offline(NodeId node) const {
    return faults_.is_node_offline(node);
  }

  /// Transmits encoded bytes; returns nullopt if the message was dropped.
  template <typename Payload>
  std::optional<std::vector<std::byte>> send(NodeId from, NodeId to,
                                             const Payload& payload) {
    std::vector<std::byte> bytes = encode(payload);
    if (is_node_offline(from) || is_node_offline(to) || faults_.roll_drop()) {
      return std::nullopt;
    }
    meter_->record({meter_->current_round(), from, to, peek_kind(bytes),
                    bytes.size()});
    return bytes;
  }

  /// Reliable transmission of one typed payload: sealed_frame + send_sealed.
  template <typename Payload>
  SendReport send_reliable(NodeId from, NodeId to, const Payload& payload) {
    return send_sealed(from, to, sealed_frame(payload));
  }

  /// Reliable transmission of a frame built by sealed_frame. An owned frame
  /// (a non-const rvalue vector) is handed to the receiver, header stripped;
  /// any other frame is shared (a broadcast sealed once for every recipient)
  /// and its payload is copied out on delivery.
  template <typename Frame>
  SendReport send_sealed(NodeId from, NodeId to, Frame&& frame) {
    SendReport report;
    if (!transmit(from, to, frame, report)) return report;
    if constexpr (std::is_same_v<Frame, std::vector<std::byte>>) {
      frame.erase(frame.begin(), frame.begin() + kFrameOverhead);
      report.payload = std::move(frame);
    } else {
      report.payload.emplace(frame.begin() + kFrameOverhead, frame.end());
    }
    return report;
  }

  Meter& meter() { return *meter_; }

 private:
  /// The attempt loop of send_sealed; true once a clean copy of `frame`
  /// was delivered and verified.
  bool transmit(NodeId from, NodeId to, std::span<const std::byte> frame,
                SendReport& report);

  Meter* meter_;
  FaultInjector faults_;
};

}  // namespace fedpkd::comm
