#include "fedpkd/fl/client_pool.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::fl {

namespace {

/// Id-salted stream constants for the per-client RNG splits. The model
/// stream reuses the resident build_federation salt so a virtual client 0 of
/// a homogeneous spec initializes exactly like its resident counterpart; the
/// data/client streams are virtual-mode-only (resident shards come from the
/// partitioner, not the sampler).
constexpr std::uint64_t kModelStream = 0x6d6f0000ull;   // "mo"
constexpr std::uint64_t kShardStream = 0xda7a0000ull;   // "data"
constexpr std::uint64_t kClientStream = 0xc11e0000ull;  // "clie"

}  // namespace

void ClientPool::adopt_resident(std::vector<Client> clients) {
  if (virtual_ || !resident_.empty()) {
    throw std::logic_error("ClientPool: already configured");
  }
  resident_ = std::move(clients);
}

void ClientPool::configure_virtual(VirtualSpec spec) {
  if (virtual_ || !resident_.empty()) {
    throw std::logic_error("ClientPool: already configured");
  }
  if (spec.population == 0) {
    throw std::invalid_argument("ClientPool: zero population");
  }
  if (spec.archs.empty()) {
    throw std::invalid_argument("ClientPool: no client architectures");
  }
  if (spec.generator == nullptr) {
    throw std::invalid_argument("ClientPool: no dataset generator");
  }
  if (spec.shard_size == 0 || spec.local_test == 0) {
    throw std::invalid_argument("ClientPool: empty client shard");
  }
  if (spec.warm_capacity == 0) {
    throw std::invalid_argument("ClientPool: zero warm capacity");
  }
  virtual_ = true;
  spec_ = std::move(spec);
  warm_.resize(spec_.population);
}

Client& ClientPool::acquire(std::size_t id) {
  if (!virtual_) {
    // Resident clients are permanently warm: no lock, no stats, no LRU —
    // bitwise and performance-wise identical to the pre-pool federation.
    return resident_.at(id);
  }
  if (id >= spec_.population) {
    throw std::out_of_range("ClientPool: client id out of range");
  }
  std::scoped_lock lock(mu_);
  if (warm_[id] != nullptr) {
    ++stats_.hits;
    touch_locked(id);
  } else {
    hydrate_locked(std::span<const std::size_t>(&id, 1));
  }
  return *warm_[id];
}

void ClientPool::touch_locked(std::size_t id) {
  auto it = lru_pos_.find(id);
  lru_.splice(lru_.end(), lru_, it->second);  // move to most-recent position
}

bool ClientPool::is_warm(std::size_t id) const {
  if (!virtual_) return id < resident_.size();
  std::scoped_lock lock(mu_);
  return id < warm_.size() && warm_[id] != nullptr;
}

std::size_t ClientPool::warm_count() const {
  if (!virtual_) return resident_.size();
  std::scoped_lock lock(mu_);
  return lru_.size();
}

std::vector<std::size_t> ClientPool::warm_ids_lru() const {
  if (!virtual_) {
    std::vector<std::size_t> all(resident_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    return all;
  }
  std::scoped_lock lock(mu_);
  return {lru_.begin(), lru_.end()};
}

void ClientPool::pin_cohort(std::span<const std::size_t> ids) {
  if (!virtual_) return;
  std::scoped_lock lock(mu_);
  // Validate first: a bad id must leave the pins, the warm set and the
  // counters exactly as they were.
  for (std::size_t id : ids) {
    if (id >= spec_.population) {
      throw std::out_of_range("ClientPool: client id out of range");
    }
  }
  pinned_.clear();
  pinned_.insert(ids.begin(), ids.end());
  hydrate_locked(ids);
}

void ClientPool::hydrate_locked(std::span<const std::size_t> ids) {
  const auto t0 = std::chrono::steady_clock::now();
  // The cold members: ids not yet warm, at their first occurrence.
  std::vector<std::size_t> cold;
  std::unordered_set<std::size_t> seen;
  for (std::size_t id : ids) {
    if (warm_[id] == nullptr && seen.insert(id).second) cold.push_back(id);
  }
  if (!cold.empty()) evict_for_locked(cold.size());
  // Build on the lanes. hydrate() reads only spec_ and blobs_, which
  // nothing writes until the lanes are done.
  std::vector<std::unique_ptr<Client>> built(cold.size());
  exec::parallel_for(cold.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) built[i] = hydrate(cold[i]);
  });
  // Install serially in the given order; a repeated id finds itself warm on
  // its second visit and counts as a hit.
  std::size_t next = 0;
  for (std::size_t id : ids) {
    if (warm_[id] != nullptr) {
      ++stats_.hits;
      touch_locked(id);
      continue;
    }
    ++stats_.misses;
    ++stats_.hydrations;
    warm_[id] = std::move(built[next++]);
    lru_.push_back(id);
    lru_pos_[id] = std::prev(lru_.end());
  }
  stats_.hydration_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

void ClientPool::evict_for_locked(std::size_t incoming) {
  // Pinned cohorts may legitimately exceed a small configured capacity; the
  // effective bound never evicts a pinned client. For a pin, one serial
  // install-then-evict per id would retire exactly these victims: touches
  // and installs only move pinned ids, so the unpinned entries keep their
  // relative LRU order and each eviction takes the oldest of them until the
  // set fits the cap or none is left.
  const std::size_t cap = std::max(spec_.warm_capacity, pinned_.size());
  if (lru_.size() + incoming <= cap) return;
  const std::size_t excess = lru_.size() + incoming - cap;
  std::vector<std::size_t> victims;
  for (std::size_t id : lru_) {
    if (victims.size() == excess) break;
    if (pinned_.count(id) == 0) victims.push_back(id);
  }
  std::vector<std::vector<std::byte>> blobs(victims.size());
  exec::parallel_for(victims.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      blobs[i] = dehydrate(*warm_[victims[i]]);
    }
  });
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const std::size_t id = victims[i];
    blobs_[id] = std::move(blobs[i]);
    warm_[id].reset();
    lru_.erase(lru_pos_.at(id));
    lru_pos_.erase(id);
    ++stats_.dehydrations;
    ++stats_.evictions;
  }
}

PoolStats ClientPool::stats() const {
  if (!virtual_) return {};
  std::scoped_lock lock(mu_);
  return stats_;
}

PoolRoundStats ClientPool::take_round_stats() {
  std::scoped_lock lock(mu_);
  PoolRoundStats round;
  round.hits = stats_.hits - window_.hits;
  round.misses = stats_.misses - window_.misses;
  round.hydrations = stats_.hydrations - window_.hydrations;
  round.dehydrations = stats_.dehydrations - window_.dehydrations;
  round.evictions = stats_.evictions - window_.evictions;
  round.warm_clients = lru_.size();
  round.hydration_seconds =
      stats_.hydration_seconds - window_.hydration_seconds;
  window_ = stats_;
  return round;
}

Client ClientPool::build_client(std::size_t id) const {
  ClientConfig cc = spec_.client_defaults;
  cc.arch = spec_.archs[id % spec_.archs.size()];
  // Deferred: when a blob hit or a FedAvg download replaces every weight
  // first, the init is never drawn.
  nn::Classifier model = nn::make_classifier_deferred(
      cc.arch, spec_.input_dim, spec_.num_classes,
      spec_.base_rng.split(kModelStream + id));
  tensor::Rng data_rng = spec_.base_rng.split(kShardStream + id);
  data::Dataset train;
  data::Dataset test;
  if (spec_.classes_per_client > 0 &&
      spec_.classes_per_client < spec_.num_classes) {
    // Non-IID shard: this client only ever sees an id-chosen class subset
    // (partial Fisher-Yates over the class ids), train and local test alike —
    // the virtual-mode analogue of the shards partition.
    std::vector<int> order(spec_.num_classes);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[data_rng.uniform_index(i)]);
    }
    std::vector<int> classes(order.begin(),
                             order.begin() + static_cast<std::ptrdiff_t>(
                                                 spec_.classes_per_client));
    std::sort(classes.begin(), classes.end());
    train = spec_.generator->sample_classes(spec_.shard_size, classes, data_rng);
    test = spec_.generator->sample_classes(spec_.local_test, classes, data_rng);
  } else {
    train = spec_.generator->sample(spec_.shard_size, data_rng);
    test = spec_.generator->sample(spec_.local_test, data_rng);
  }
  return Client(static_cast<comm::NodeId>(id), std::move(cc), std::move(model),
                std::move(train), std::move(test),
                spec_.base_rng.split(kClientStream + id));
}

std::unique_ptr<Client> ClientPool::hydrate(std::size_t id) const {
  auto client = std::make_unique<Client>(build_client(id));
  if (auto it = blobs_.find(id); it != blobs_.end()) {
    std::size_t offset = 0;
    client->rng = tensor::get_rng(it->second, offset);
    client->model.set_flat_weights(tensor::decode_tensor(it->second, offset));
  }
  return client;
}

std::vector<std::byte> ClientPool::dehydrate(Client& client) const {
  std::vector<std::byte> blob;
  tensor::put_rng(client.rng, blob);
  tensor::encode_tensor(client.model.flat_weights(), blob);
  return blob;
}

void ClientPool::save_state(std::vector<std::byte>& out) {
  out.push_back(static_cast<std::byte>(virtual_ ? 1 : 0));
  if (!virtual_) {
    for (Client& client : resident_) {
      tensor::put_rng(client.rng, out);
      tensor::encode_tensor(client.model.flat_weights(), out);
    }
    return;
  }
  std::scoped_lock lock(mu_);
  tensor::put_u64(lru_.size(), out);
  for (std::size_t id : lru_) tensor::put_u64(id, out);
  // The touched set: every client that diverged from its derivable fresh
  // state (warm now, or evicted with a blob). Ascending id order keeps the
  // byte stream deterministic regardless of hash-map iteration order.
  std::vector<std::size_t> touched;
  touched.reserve(blobs_.size() + lru_.size());
  for (const auto& [id, blob] : blobs_) touched.push_back(id);
  for (std::size_t id : lru_) {
    if (blobs_.count(id) == 0) touched.push_back(id);
  }
  std::sort(touched.begin(), touched.end());
  tensor::put_u64(touched.size(), out);
  for (std::size_t id : touched) {
    tensor::put_u64(id, out);
    // Warm clients serialize their live state; an evicted client's blob is
    // current by construction (dehydrated at eviction).
    const std::vector<std::byte> blob =
        warm_[id] != nullptr ? dehydrate(*warm_[id]) : blobs_.at(id);
    tensor::put_u64(blob.size(), out);
    out.insert(out.end(), blob.begin(), blob.end());
  }
}

void ClientPool::load_state(std::span<const std::byte> bytes,
                            std::size_t& offset) {
  if (offset >= bytes.size()) {
    throw std::runtime_error("ClientPool: truncated pool state");
  }
  const bool stored_virtual = bytes[offset++] != std::byte{0};
  if (stored_virtual != virtual_) {
    throw std::runtime_error(
        "ClientPool: checkpoint pool mode does not match the federation");
  }
  if (!virtual_) {
    for (Client& client : resident_) {
      client.rng = tensor::get_rng(bytes, offset);
      client.model.set_flat_weights(tensor::decode_tensor(bytes, offset));
    }
    return;
  }
  std::scoped_lock lock(mu_);
  for (auto& slot : warm_) slot.reset();
  lru_.clear();
  lru_pos_.clear();
  blobs_.clear();
  pinned_.clear();
  const auto warm_ids = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  if (warm_ids > (bytes.size() - offset) / 8) {
    throw std::runtime_error("ClientPool: truncated warm-set list");
  }
  std::vector<std::size_t> lru_order;
  lru_order.reserve(warm_ids);
  for (std::size_t i = 0; i < warm_ids; ++i) {
    const auto id = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    if (id >= spec_.population) {
      throw std::runtime_error("ClientPool: warm id out of range");
    }
    lru_order.push_back(id);
  }
  const auto touched = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
  if (touched > (bytes.size() - offset) / 16) {
    throw std::runtime_error("ClientPool: truncated blob table");
  }
  for (std::size_t i = 0; i < touched; ++i) {
    const auto id = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    if (id >= spec_.population) {
      throw std::runtime_error("ClientPool: blob id out of range");
    }
    const auto size = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    if (size > bytes.size() - offset) {
      throw std::runtime_error("ClientPool: truncated client blob");
    }
    blobs_[id].assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                      bytes.begin() + static_cast<std::ptrdiff_t>(offset + size));
    offset += size;
  }
  // Rebuild the recorded warm set on the lanes and install it in recorded
  // recency order. The LRU is empty, so nothing is evicted even when a
  // pinned cohort held the set above warm_capacity; the next pin decides
  // evictions exactly as the interrupted run would have. The restore is
  // charged to no round.
  hydrate_locked(lru_order);
  window_ = stats_;
}

}  // namespace fedpkd::fl
