#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/fl/client.hpp"
#include "fedpkd/fl/metrics.hpp"

namespace fedpkd::fl {

/// Cumulative hydration counters of one ClientPool. All counts are
/// deterministic in virtual mode: cohorts are pinned and installed in id
/// order whatever the lane count. hydration_seconds is wall-clock and
/// therefore not: the time of each miss, pin and restore, every call counted
/// once (a pin's builds run concurrently on the lanes, so this is elapsed
/// time, not the sum of per-client build times).
struct PoolStats {
  std::size_t hits = 0;          // acquire() served from the warm set
  std::size_t misses = 0;        // acquire() had to hydrate
  std::size_t hydrations = 0;    // clients rebuilt (fresh or from a blob)
  std::size_t dehydrations = 0;  // clients serialized to a blob on eviction
  std::size_t evictions = 0;     // warm clients retired by the LRU bound
  double hydration_seconds = 0.0;  // wall-clock; see above
};

/// The virtual-client pool: the population is a set of derivable
/// `ClientSpec`s (id -> arch, RNG streams, dataset shard), and full Client
/// state exists only for the warm set.
///
/// Two modes:
///  * resident — adopts an eagerly built std::vector<Client> (the classic
///    build_federation path). Every client is permanently warm, acquire() is
///    a bounds-checked array access with no lock and no stats, and eviction
///    never happens: the pool degenerates bitwise to the pre-pool federation.
///  * virtual — the population is just a number. acquire(id) hydrates a
///    client on demand: the model is built from the id-derived RNG stream,
///    the dataset shard is regenerated from the deterministic SyntheticVision
///    sampler (shards are recomputed, never stored), and — if the client was
///    trained before — its RNG state and weights are restored from a compact
///    dehydration blob (checkpoint codecs: put_rng + encode_tensor). Warm
///    clients live in a bounded LRU; eviction dehydrates the least recently
///    acquired unpinned client into the spill file.
///
/// The spill file holds every evicted client's blob, so pool RAM is bounded
/// by the warm cap, not by how many clients a run has touched. It is one
/// process-private file under std::filesystem::temp_directory_path()
/// (TMPDIR), created at the first eviction and unlinked at once. Each
/// evicted client owns one fixed extent, assigned serially in victim order
/// and overwritten in place when the client is evicted again, so the file
/// holds distinct evicted clients × their sealed blob size. Every blob is
/// sealed with durable_io's footer; a damaged extent makes the hydration of
/// its client throw. The file is a cache, never fsynced: crash safety comes
/// from checkpoints (save_state). Resident pools never open it.
///
/// Determinism contract: acquire() is thread-safe (one mutex guards all pool
/// structures), but LRU recency — and therefore eviction order — follows the
/// caller's acquire order. The round pipeline and checkpoint code only pin
/// and acquire serially in client-id order, so eviction, hydration counts,
/// and every downstream result are bitwise independent of the thread count.
/// Hydration (pin_cohort, load_state, an acquire() miss) fans the
/// per-client work — building, blob restore, dehydration — out to the exec
/// lanes while holding the mutex; the lanes only read the spec, the extent
/// table and the victims, read and write disjoint extents of the spill file
/// and never take the mutex, and every structural change happens serially
/// in id order.
/// Rehydration is exact: blob weights and RNG state (including the Box-Muller
/// cache) round-trip bitwise, and the regenerated shard is byte-identical
/// because the sampler streams are derived from (base seed, id) only.
class ClientPool {
 public:
  /// How virtual clients are derived. Everything is a pure function of
  /// (base_rng, id): arch cycles through `archs`, the model/data/client RNG
  /// streams are independent splits salted with the id, and the train/test
  /// shard is sampled from `generator` (restricted to `classes_per_client`
  /// id-chosen classes when non-zero, the non-IID pathology knob).
  struct VirtualSpec {
    std::size_t population = 0;
    /// Warm-set bound. Clamped up to the pinned cohort size at pin time so a
    /// round's participants can never evict each other mid-round.
    std::size_t warm_capacity = 64;
    std::vector<std::string> archs = {"resmlp20"};
    ClientConfig client_defaults;
    std::size_t input_dim = 0;
    std::size_t num_classes = 0;
    std::size_t shard_size = 64;       // per-client train samples
    std::size_t local_test = 32;       // per-client test samples
    std::size_t classes_per_client = 0;  // 0 = all classes (IID shards)
    std::shared_ptr<const data::SyntheticVision> generator;
    tensor::Rng base_rng{0};
  };

  ClientPool() = default;
  ~ClientPool();
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Resident mode: takes ownership of eagerly built clients (indexed by id).
  void adopt_resident(std::vector<Client> clients);

  /// Virtual mode: installs the spec; no client is hydrated yet.
  void configure_virtual(VirtualSpec spec);

  bool virtual_mode() const { return virtual_; }
  std::size_t population() const {
    return virtual_ ? spec_.population : resident_.size();
  }

  /// Returns the client, hydrating it first in virtual mode (thread-safe;
  /// see the class comment for the determinism contract). The reference is
  /// stable until the client is evicted; pinned clients are never evicted.
  Client& acquire(std::size_t id);

  bool is_warm(std::size_t id) const;
  std::size_t warm_count() const;
  std::size_t warm_capacity() const { return spec_.warm_capacity; }
  /// Warm client ids, least recently acquired first. Resident mode: all ids.
  std::vector<std::size_t> warm_ids_lru() const;

  /// Pins this round's cohort and protects it from eviction until the next
  /// pin. Four phases under the pool mutex:
  ///  1. validate every id (out_of_range leaves the pool untouched), then
  ///     replace the pins;
  ///  2. if any member is cold, choose the victims: the oldest unpinned LRU
  ///     entries that would overflow max(warm_capacity, pins), each given
  ///     its spill-file extent (if the file cannot be opened, the error
  ///     names its directory and nothing is evicted);
  ///  3. on the lanes, one task spills and frees the victims in victim
  ///     order while the others build every cold member (and apply its
  ///     blob); then retire the victims serially;
  ///  4. install in the given order: a cold member counts a miss and joins
  ///     the LRU tail, a warm one counts a hit and is touched.
  /// LRU order, blobs and counters equal one serial acquire per id at any
  /// lane count. No-op in resident mode.
  void pin_cohort(std::span<const std::size_t> ids);

  PoolStats stats() const;

  /// Virtual mode: the counters accumulated since the previous call (one
  /// round's worth when the pipeline calls it at the end of every round)
  /// plus the current warm-set size. load_state restarts the window, so a
  /// restore is charged to no round and a resumed run reports the same
  /// per-round counts as an uninterrupted one.
  PoolRoundStats take_round_stats();

  /// Appends the compact dehydration blob of one client to `out`: RNG state
  /// + flat weights, in the checkpoint codec format. Datasets are never
  /// stored — shards are regenerated from the spec on hydration.
  void dehydrate(Client& client, std::vector<std::byte>& out) const;

  /// The spill file's descriptor; -1 until the first eviction (or a
  /// load_state with blobs). For inspection: its size is the sum of the
  /// extents, one sealed blob (dehydrate + durable::kFooterSize) per client.
  int spill_fd() const { return spill_fd_; }

  /// Checkpoint v4 body: mode byte, then either every resident client's
  /// RNG + weights (id order, the v3 layout) or the virtual pool state
  /// (warm-LRU id list in recency order + the touched-client blob table;
  /// evicted clients' blobs are read back from the spill file). load_state
  /// truncates the spill file, writes every blob of the table to it, then
  /// rebuilds the recorded warm set on the lanes and installs it in recorded
  /// order without evicting, even above warm_capacity.
  void save_state(std::vector<std::byte>& out);
  void load_state(std::span<const std::byte> bytes, std::size_t& offset);

  const VirtualSpec& spec() const { return spec_; }

 private:
  Client build_client(std::size_t id) const;  // fresh from the spec
  /// One client's place in the spill file: a sealed blob (dehydrate output
  /// plus the durable footer) of fixed size, since the id fixes the arch.
  struct Extent {
    std::uint64_t offset = 0;
    std::size_t size = 0;
  };
  /// build_client plus the blob restore, if the id has an extent: reads and
  /// verifies the extent first, so a damaged blob throws (naming the
  /// client) before anything is built. Reads only spec_, extents_ and the
  /// spill file, so lanes may run it while the mutex holder waits.
  std::unique_ptr<Client> hydrate(std::size_t id) const;
  /// Dehydrates, seals and writes one client into its extent (lane-safe).
  void spill(Client& client, const Extent& extent) const;
  /// Opens the spill file if it is not open yet (serial, under the mutex).
  void open_spill_locked();
  void touch_locked(std::size_t id);
  /// Brings every id warm, in order: choose the victims the cold members
  /// displace, spill them (one task, one writer) and build the cold members
  /// in one lane fan-out, retire the spilled victims serially, then install
  /// serially (cold ids count a miss and join the LRU tail, warm ones count
  /// a hit and are touched).
  void hydrate_locked(std::span<const std::size_t> ids);
  /// Appends the victims that make room for `incoming` new clients under
  /// the pinned cap (the oldest unpinned clients) and their extents,
  /// assigned serially in victim order; opens the spill file if needed. A
  /// failed open throws before anything changes.
  void plan_evictions_locked(std::size_t incoming,
                             std::vector<std::size_t>& victims,
                             std::vector<Extent>& extents);

  bool virtual_ = false;
  std::vector<Client> resident_;  // resident mode storage; never resized
  VirtualSpec spec_;
  std::vector<std::unique_ptr<Client>> warm_;  // virtual mode, population-sized
  int spill_fd_ = -1;           // the unlinked spill file, once opened
  std::uint64_t spill_end_ = 0;  // bytes assigned to extents
  std::unordered_map<std::size_t, Extent> extents_;  // every evicted id
  std::list<std::size_t> lru_;  // warm ids, least recently acquired first
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> lru_pos_;
  std::unordered_set<std::size_t> pinned_;
  mutable std::mutex mu_;
  PoolStats stats_;
  PoolStats window_;  // stats_ at the last take_round_stats or load_state
};

}  // namespace fedpkd::fl
