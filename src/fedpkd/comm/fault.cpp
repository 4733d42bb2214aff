#include "fedpkd/comm/fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::comm {

namespace {

void check_probability(double p, const char* what) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                " must be in [0,1]");
  }
}

auto crash_key(std::size_t round, RoundStage stage) {
  return std::make_pair(round, static_cast<std::uint8_t>(stage));
}

}  // namespace

const char* to_string(RoundStage stage) {
  switch (stage) {
    case RoundStage::kBroadcast:
      return "broadcast";
    case RoundStage::kUpload:
      return "upload";
    case RoundStage::kDownload:
      return "download";
  }
  return "unknown";
}

void FaultInjector::set_plan(const FaultPlan& plan) {
  check_probability(plan.drop_probability, "drop probability");
  check_probability(plan.corrupt_probability, "corrupt probability");
  if (plan.latency_ms < 0.0 || plan.jitter_ms < 0.0 ||
      plan.retry_backoff_ms < 0.0) {
    throw std::invalid_argument("FaultPlan: latencies must be >= 0");
  }
  for (const auto& straggler : plan.stragglers) {
    if (straggler.second < 1.0) {
      throw std::invalid_argument(
          "FaultPlan: straggler factors must be >= 1");
    }
  }
  plan_ = plan;
  std::sort(plan_.crashes.begin(), plan_.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return std::make_tuple(a.round, static_cast<std::uint8_t>(a.stage),
                                     a.node) <
                     std::make_tuple(b.round, static_cast<std::uint8_t>(b.stage),
                                     b.node);
            });
  next_crash_ = 0;
  // Independent per-fault-type streams split from one seed: enabling
  // corruption never shifts the drop sequence and vice versa.
  const tensor::Rng base(plan_.seed);
  drop_rng_ = base.split(0x64726f70);     // 'drop'
  corrupt_rng_ = base.split(0x636f7272);  // 'corr'
  latency_rng_ = base.split(0x6c617463);  // 'latc'
}

void FaultInjector::set_drop(double p, tensor::Rng rng) {
  check_probability(p, "drop probability");
  plan_.drop_probability = p;
  drop_rng_ = rng;
}

bool FaultInjector::roll_drop() {
  if (plan_.drop_probability <= 0.0) return false;
  return drop_rng_.uniform() < plan_.drop_probability;
}

std::optional<std::uint64_t> FaultInjector::roll_corruption(
    std::size_t frame_bytes) {
  if (plan_.corrupt_probability <= 0.0 || frame_bytes == 0) return std::nullopt;
  if (corrupt_rng_.uniform() >= plan_.corrupt_probability) return std::nullopt;
  return corrupt_rng_.uniform_index(8 * frame_bytes);
}

double FaultInjector::draw_latency_ms(NodeId from, NodeId to) {
  double ms = plan_.latency_ms;
  if (plan_.jitter_ms > 0.0) ms += latency_rng_.uniform(0.0, plan_.jitter_ms);
  if (ms <= 0.0) return 0.0;
  return ms * std::max(straggler_factor(from), straggler_factor(to));
}

double FaultInjector::straggler_factor(NodeId node) const {
  for (const auto& [id, factor] : plan_.stragglers) {
    if (id == node) return factor;
  }
  return 1.0;
}

void FaultInjector::set_node_offline(NodeId node, bool offline) {
  const auto it = std::lower_bound(offline_.begin(), offline_.end(), node);
  const bool present = it != offline_.end() && *it == node;
  if (offline && !present) {
    offline_.insert(it, node);
  } else if (!offline && present) {
    offline_.erase(it);
  }
}

bool FaultInjector::is_node_offline(NodeId node) const {
  return std::binary_search(offline_.begin(), offline_.end(), node);
}

std::size_t FaultInjector::advance(std::size_t round, RoundStage stage) {
  std::size_t fired = 0;
  while (next_crash_ < plan_.crashes.size()) {
    const CrashEvent& event = plan_.crashes[next_crash_];
    if (crash_key(event.round, event.stage) > crash_key(round, stage)) break;
    set_node_offline(event.node, true);
    ++next_crash_;
    ++fired;
  }
  return fired;
}

void FaultInjector::save_state(std::vector<std::byte>& out) const {
  tensor::put_rng(drop_rng_, out);
  tensor::put_rng(corrupt_rng_, out);
  tensor::put_rng(latency_rng_, out);
  tensor::put_u32(static_cast<std::uint32_t>(offline_.size()), out);
  for (NodeId node : offline_) {
    tensor::put_u32(static_cast<std::uint32_t>(node), out);
  }
  tensor::put_u64(next_crash_, out);
}

void FaultInjector::load_state(std::span<const std::byte> bytes,
                               std::size_t& offset) {
  drop_rng_ = tensor::get_rng(bytes, offset);
  corrupt_rng_ = tensor::get_rng(bytes, offset);
  latency_rng_ = tensor::get_rng(bytes, offset);
  const std::uint32_t n = tensor::get_u32(bytes, offset);
  offline_.clear();
  offline_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    offline_.push_back(
        static_cast<NodeId>(tensor::get_u32(bytes, offset)));
  }
  std::sort(offline_.begin(), offline_.end());
  next_crash_ = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
}

}  // namespace fedpkd::comm
