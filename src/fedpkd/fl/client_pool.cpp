#include "fedpkd/fl/client_pool.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <system_error>

#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/durable_io.hpp"
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

/// The calling lane's blob buffer, reused for every blob the lane encodes or
/// reads: spilling allocates no per-blob buffer once it has grown.
std::vector<std::byte>& lane_buffer() {
  thread_local std::vector<std::byte> buffer;
  return buffer;
}

/// Bytes of one client's sealed blob: put_rng's fixed record, the flat
/// weights' tensor encoding, and the durable footer.
std::size_t sealed_blob_size(const Client& client) {
  static const std::size_t rng_bytes = [] {
    std::vector<std::byte> bytes;
    tensor::put_rng(tensor::Rng(0), bytes);
    return bytes.size();
  }();
  return rng_bytes + tensor::encoded_size({client.model.parameter_count()}) +
         durable::kFooterSize;
}

std::string blob_origin(std::size_t id) {
  return "ClientPool: spilled blob of client " + std::to_string(id);
}

[[noreturn]] void throw_io(const std::string& what, int err) {
  throw std::runtime_error(what + ": " + std::generic_category().message(err) +
                           " (errno " + std::to_string(err) + ")");
}

void pwrite_all(int fd, std::span<const std::byte> bytes, std::uint64_t offset,
                std::size_t id) {
  while (!bytes.empty()) {
    const ::ssize_t n = ::pwrite(fd, bytes.data(), bytes.size(),
                                 static_cast<::off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io(blob_origin(id) + ": write failed", errno);
    }
    bytes = bytes.subspan(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
}

/// Reads the sealed blob at [offset, offset + sealed.size()) into `sealed`
/// and returns its payload size once the footer verifies.
std::size_t read_sealed(int fd, std::uint64_t offset, std::span<std::byte> sealed,
                        std::size_t id) {
  std::size_t done = 0;
  while (done < sealed.size()) {
    const ::ssize_t n =
        ::pread(fd, sealed.data() + done, sealed.size() - done,
                static_cast<::off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io(blob_origin(id) + ": read failed", errno);
    }
    if (n == 0) {
      throw std::runtime_error(blob_origin(id) + ": spill file truncated");
    }
    done += static_cast<std::size_t>(n);
  }
  return durable::verified_payload_size(sealed, blob_origin(id));
}

}  // namespace

ClientPool::~ClientPool() {
  if (spill_fd_ >= 0) ::close(spill_fd_);
}

void ClientPool::open_spill_locked() {
  if (spill_fd_ >= 0) return;
  std::error_code ec;
  const std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) {
    // The error does not carry the rejected directory: name the variable
    // it came from, in temp_directory_path's lookup order.
    std::string where = "/tmp";
    for (const char* var : {"TMPDIR", "TMP", "TEMP", "TEMPDIR"}) {
      if (const char* value = std::getenv(var)) {
        where = value;
        break;
      }
    }
    throw_io("ClientPool: cannot create the spill file in '" + where + "'",
             ec.value());
  }
  std::string path = (dir / "fedpkd-pool-XXXXXX").string();
  const int fd = ::mkostemp(path.data(), O_CLOEXEC);
  if (fd < 0) {
    throw_io("ClientPool: cannot create the spill file '" + path + "'", errno);
  }
  // Unlinked at once: the blobs vanish with the process, however it ends.
  ::unlink(path.c_str());
  spill_fd_ = fd;
}

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
  std::vector<std::size_t> victims;
  std::vector<Extent> extents;
  if (!cold.empty()) plan_evictions_locked(cold.size(), victims, extents);
  // One fan-out spills the victims and builds the cold members. The spill is
  // one task, claimed first, that writes the victims in victim order while
  // the other lanes build: buffered writes to one file serialize on its
  // inode lock, so more writers do not write faster, and a lane queued
  // there sleeps instead of building. A victim is freed once its blob is
  // written, so the warm set stays near its cap while the new clients
  // exist. hydrate() reads only spec_, extents_ and extents of the spill
  // file that no victim writes.
  const std::size_t v = victims.size();
  const std::size_t spill_tasks = v > 0 ? 1 : 0;
  std::vector<std::size_t> order(spill_tasks + cold.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::unique_ptr<Client>> built(cold.size());
  std::exception_ptr failure;
  try {
    exec::parallel_for_each(order, [&](std::size_t i, std::size_t) {
      if (i < spill_tasks) {
        // The first failed write ends the spill: that victim and the ones
        // after it stay warm.
        for (std::size_t k = 0; k < v; ++k) {
          spill(*warm_[victims[k]], extents[k]);
          warm_[victims[k]].reset();
        }
      } else {
        built[i - spill_tasks] = hydrate(cold[i - spill_tasks]);
      }
    });
  } catch (...) {
    failure = std::current_exception();
  }
  // Retire, in victim order, every victim whose blob reached the file; one
  // whose write failed, and every later one, stays warm.
  for (std::size_t i = 0; i < v; ++i) {
    const std::size_t id = victims[i];
    if (warm_[id] != nullptr) continue;
    extents_[id] = extents[i];
    spill_end_ = std::max(spill_end_, extents[i].offset + extents[i].size);
    lru_.erase(lru_pos_.at(id));
    lru_pos_.erase(id);
    ++stats_.dehydrations;
    ++stats_.evictions;
  }
  if (failure) std::rethrow_exception(failure);
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

void ClientPool::plan_evictions_locked(std::size_t incoming,
                                       std::vector<std::size_t>& victims,
                                       std::vector<Extent>& extents) {
  // Pinned cohorts may legitimately exceed a small configured capacity; the
  // effective bound never evicts a pinned client. For a pin, one serial
  // install-then-evict per id would retire exactly these victims: touches
  // and installs only move pinned ids, so the unpinned entries keep their
  // relative LRU order and each eviction takes the oldest of them until the
  // set fits the cap or none is left.
  const std::size_t cap = std::max(spec_.warm_capacity, pinned_.size());
  if (lru_.size() + incoming <= cap) return;
  const std::size_t excess = lru_.size() + incoming - cap;
  for (std::size_t id : lru_) {
    if (victims.size() == excess) break;
    if (pinned_.count(id) == 0) victims.push_back(id);
  }
  if (victims.empty()) return;
  open_spill_locked();
  // Extents are assigned serially in victim order. A client evicted before
  // keeps its extent: its id fixes its arch, so its blob size never changes
  // (only a checkpoint blob of another size moves it to a new extent).
  std::uint64_t end = spill_end_;
  for (std::size_t id : victims) {
    const std::size_t size = sealed_blob_size(*warm_[id]);
    const auto it = extents_.find(id);
    if (it != extents_.end() && it->second.size == size) {
      extents.push_back(it->second);
    } else {
      extents.push_back({end, size});
      end += size;
    }
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
  const auto it = extents_.find(id);
  if (it == extents_.end()) return std::make_unique<Client>(build_client(id));
  std::vector<std::byte>& sealed = lane_buffer();
  sealed.resize(it->second.size);
  const std::span<const std::byte> blob =
      std::span<const std::byte>(sealed).first(
          read_sealed(spill_fd_, it->second.offset, sealed, id));
  auto client = std::make_unique<Client>(build_client(id));
  std::size_t offset = 0;
  client->rng = tensor::get_rng(blob, offset);
  client->model.set_flat_weights(tensor::decode_tensor(blob, offset));
  return client;
}

void ClientPool::spill(Client& client, const Extent& extent) const {
  std::vector<std::byte>& sealed = lane_buffer();
  sealed.clear();
  dehydrate(client, sealed);
  durable::append_footer(sealed);
  if (sealed.size() != extent.size) {
    throw std::logic_error(blob_origin(static_cast<std::size_t>(client.id)) +
                           ": blob size differs from its extent");
  }
  pwrite_all(spill_fd_, sealed, extent.offset,
             static_cast<std::size_t>(client.id));
}

void ClientPool::dehydrate(Client& client, std::vector<std::byte>& out) const {
  tensor::put_rng(client.rng, out);
  tensor::encode_tensor(client.model.flat_weights(), out);
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
  touched.reserve(extents_.size() + lru_.size());
  for (const auto& [id, extent] : extents_) touched.push_back(id);
  for (std::size_t id : lru_) {
    if (extents_.count(id) == 0) touched.push_back(id);
  }
  std::sort(touched.begin(), touched.end());
  tensor::put_u64(touched.size(), out);
  for (std::size_t id : touched) {
    tensor::put_u64(id, out);
    // Warm clients serialize their live state; an evicted client's blob is
    // current by construction (spilled at eviction), so it is read straight
    // into `out` and its footer dropped once it verifies.
    if (warm_[id] != nullptr) {
      tensor::put_u64(sealed_blob_size(*warm_[id]) - durable::kFooterSize,
                      out);
      dehydrate(*warm_[id], out);
      continue;
    }
    const Extent& extent = extents_.at(id);
    tensor::put_u64(extent.size - durable::kFooterSize, out);
    const std::size_t at = out.size();
    out.resize(at + extent.size);
    out.resize(at + read_sealed(spill_fd_, extent.offset,
                                std::span<std::byte>(out).subspan(at), id));
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
  extents_.clear();
  spill_end_ = 0;
  if (spill_fd_ >= 0 && ::ftruncate(spill_fd_, 0) != 0) {
    throw_io("ClientPool: cannot truncate the spill file", errno);
  }
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
  // Every blob of the table gets an extent, in table order.
  if (touched > 0) open_spill_locked();
  std::vector<std::byte>& sealed = lane_buffer();
  for (std::size_t i = 0; i < touched; ++i) {
    const auto id = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    if (id >= spec_.population) {
      throw std::runtime_error("ClientPool: blob id out of range");
    }
    const auto size = static_cast<std::size_t>(tensor::get_u64(bytes, offset));
    if (size > bytes.size() - offset) {
      throw std::runtime_error("ClientPool: truncated client blob");
    }
    const Extent extent{spill_end_, size + durable::kFooterSize};
    if (!extents_.emplace(id, extent).second) {
      throw std::runtime_error("ClientPool: duplicate blob id");
    }
    sealed.assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                  bytes.begin() + static_cast<std::ptrdiff_t>(offset + size));
    durable::append_footer(sealed);
    pwrite_all(spill_fd_, sealed, extent.offset, id);
    spill_end_ += extent.size;
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
