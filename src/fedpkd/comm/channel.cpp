#include "fedpkd/comm/channel.hpp"

#include <stdexcept>

namespace fedpkd::comm {

bool Channel::transmit(NodeId from, NodeId to,
                       std::span<const std::byte> frame, SendReport& report) {
  // Dead link: detected before transmitting — no attempts, no dice, no
  // charge, exactly like the raw send path.
  if (faults_.is_node_offline(from) || faults_.is_node_offline(to)) {
    return false;
  }
  // Charged with the *payload's* kind: the frame header must not
  // misattribute traffic.
  const PayloadKind kind = peek_kind(frame.subspan(kFrameOverhead));
  const FaultPlan& plan = faults_.plan();
  const std::size_t budget = plan.max_retries + 1;
  for (std::size_t attempt = 0; attempt < budget; ++attempt) {
    ++report.attempts;
    report.latency_ms += faults_.draw_latency_ms(from, to);
    if (faults_.roll_drop()) {
      ++report.drops;  // lost in transit: never charged
    } else {
      // The frame crossed the wire: charge it, then the receiver verifies
      // what arrived.
      meter_->record(
          {meter_->current_round(), from, to, kind, frame.size()});
      if (const std::optional<std::uint64_t> bit =
              faults_.roll_corruption(frame.size())) {
        // Copy-on-hit: the flip lands in the receiver's copy only.
        std::vector<std::byte> received(frame.begin(), frame.end());
        received[static_cast<std::size_t>(*bit / 8)] ^=
            static_cast<std::byte>(1u << (*bit % 8));
        if (open_frame(received)) {
          throw std::logic_error("Channel: CRC32 accepted a bit flip");
        }
      } else if (open_frame(frame)) {
        report.retries = report.attempts - 1;
        return true;
      }
      ++report.corrupt_detected;  // CRC caught it; retry below
    }
    if (attempt + 1 < budget) {
      report.latency_ms +=
          plan.retry_backoff_ms * static_cast<double>(1ull << attempt);
    }
  }
  report.retries = report.attempts - 1;  // budget exhausted, message lost
  return false;
}

}  // namespace fedpkd::comm
