#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "fedpkd/comm/meter.hpp"
#include "fedpkd/tensor/rng.hpp"

namespace fedpkd::comm {

/// Where in a pipeline round a scripted fault fires. Ordered: a CrashEvent
/// scheduled at (round, stage) takes effect just before that stage's
/// transfers begin.
enum class RoundStage : std::uint8_t {
  kBroadcast = 0,  // pre-training downlink
  kUpload = 1,     // client uplink (after local training)
  kDownload = 2,   // post-server downlink
};

const char* to_string(RoundStage stage);

/// A scripted client crash: from (round, stage) onward the node is offline —
/// every message from or to it is dropped without consuming fault dice, so
/// the rest of the federation's fault schedule is unaffected.
struct CrashEvent {
  std::size_t round = 0;
  RoundStage stage = RoundStage::kUpload;
  NodeId node = 0;
};

/// A seeded, declarative fault schedule for one run. Everything is
/// deterministic under `seed`: the injector derives independent RNG streams
/// per fault type (drop / corruption / latency), so enabling one fault class
/// never shifts another's sequence, and serial==parallel golden traces hold
/// because all transfers execute serially in slot order.
struct FaultPlan {
  std::uint64_t seed = 0x5eedf417ull;
  /// Per-attempt probability that a frame is lost in transit (not charged).
  double drop_probability = 0.0;
  /// Per-delivered-frame probability of a single-bit corruption; the CRC32
  /// frame check detects it and the transport retries.
  double corrupt_probability = 0.0;
  /// Simulated per-message link latency: base + uniform[0, jitter).
  double latency_ms = 0.0;
  double jitter_ms = 0.0;
  /// Retry budget and deterministic exponential backoff of the reliable
  /// transport: attempt k (0-based) that fails waits backoff * 2^k simulated
  /// ms before the next attempt, up to max_retries retransmissions.
  std::size_t max_retries = 3;
  double retry_backoff_ms = 1.0;
  /// Per-node latency multipliers (straggler model); a link's factor is the
  /// max over its two endpoints, the server's factor is 1.
  std::vector<std::pair<NodeId, double>> stragglers;
  /// Scripted mid-round crashes, applied by FaultInjector::advance.
  std::vector<CrashEvent> crashes;

  bool any() const {
    return drop_probability > 0.0 || corrupt_probability > 0.0 ||
           latency_ms > 0.0 || jitter_ms > 0.0 || !stragglers.empty() ||
           !crashes.empty();
  }
};

/// Owns all fault state of a Channel: the drop/corruption/latency dice, the
/// offline set (a sorted small-set — membership tests are O(log n) instead
/// of the old O(n) vector scan in Channel), and the crash-schedule cursor.
///
/// Contract inherited from the pre-injector Channel and kept by every path
/// here: a dropped message is never charged to the meter, and messages to or
/// from an offline node consume no dice at all, so one node's blackout never
/// perturbs the fault sequence of other links.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Installs `plan`, reseeding every dice stream from plan.seed and sorting
  /// the crash schedule. Throws std::invalid_argument on out-of-range
  /// probabilities, negative latencies, or straggler factors below 1.
  void set_plan(const FaultPlan& plan);
  const FaultPlan& plan() const { return plan_; }

  /// Legacy knob (Channel::set_drop_probability): overrides the drop dice
  /// only, leaving the rest of the plan untouched.
  void set_drop(double p, tensor::Rng rng);

  /// Rolls the drop dice. Consumes a draw only when drop probability > 0,
  /// so a lossless run's behavior is independent of the dice seed.
  bool roll_drop();

  /// Rolls the corruption dice for one delivered frame of `frame_bytes`
  /// bytes (uniform(), then uniform_index(8 * frame_bytes) only on a hit):
  /// the bit to flip, or nullopt. The caller flips it in its own copy.
  std::optional<std::uint64_t> roll_corruption(std::size_t frame_bytes);

  /// Simulated latency of one transmission attempt on the (from, to) link:
  /// (base + jitter draw) * straggler factor. Draws from the latency stream
  /// only when jitter > 0.
  double draw_latency_ms(NodeId from, NodeId to);

  double straggler_factor(NodeId node) const;

  void set_node_offline(NodeId node, bool offline);
  bool is_node_offline(NodeId node) const;
  const std::vector<NodeId>& offline_nodes() const { return offline_; }

  /// Applies every scripted crash scheduled at or before (round, stage) that
  /// has not fired yet, taking the crashed nodes offline permanently.
  /// Returns how many fired. The pipeline calls this at each stage boundary.
  std::size_t advance(std::size_t round, RoundStage stage);

  /// Position in the sorted crash schedule (checkpointed so a resumed run
  /// does not re-fire crashes that already happened).
  std::size_t crash_cursor() const { return next_crash_; }

  /// Checkpoint support: serializes the dice streams, the offline set, and
  /// the crash cursor. The FaultPlan itself is *not* stored — resume
  /// re-applies the same plan (it is run configuration, like the dataset),
  /// then load_state restores the injector's position within it.
  void save_state(std::vector<std::byte>& out) const;
  void load_state(std::span<const std::byte> bytes, std::size_t& offset);

 private:
  FaultPlan plan_;
  tensor::Rng drop_rng_{0};
  tensor::Rng corrupt_rng_{0};
  tensor::Rng latency_rng_{0};
  std::vector<NodeId> offline_;  // sorted, unique
  std::size_t next_crash_ = 0;
};

}  // namespace fedpkd::comm
